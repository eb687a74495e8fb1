//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search subsystem's contracts: candidate coordinates embed the
/// heuristic layouts losslessly, the cost models agree on direction, and
/// the engine is deterministic — same seed and budget give bit-identical
/// results for every thread count — while never losing to the PAD
/// baseline it seeds from.
///
//===----------------------------------------------------------------------===//

#include "search/SearchEngine.h"

#include "core/Padding.h"
#include "exec/MultiTraceReplayer.h"
#include "exec/RecordedTrace.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "machine/MachineModel.h"
#include "search/Candidate.h"
#include "search/CandidateGenerator.h"
#include "search/CostModel.h"

#include "gtest/gtest.h"

#include <atomic>
#include <sstream>

using namespace padx;

namespace {

/// Small problem sizes keep each simulated evaluation cheap.
ir::Program smallKernel(const std::string &Name, int64_t N = 96) {
  return kernels::makeKernel(Name, N);
}

} // namespace

//===----------------------------------------------------------------------===//
// Candidate coordinates
//===----------------------------------------------------------------------===//

TEST(Candidate, ZeroCandidateMaterializesToOriginalLayout) {
  ir::Program P = smallKernel("expl");
  layout::DataLayout Orig = layout::originalLayout(P);
  layout::DataLayout DL =
      search::materialize(P, search::zeroCandidate(P));
  for (unsigned Id = 0; Id != DL.numArrays(); ++Id) {
    EXPECT_EQ(DL.layout(Id).BaseAddr, Orig.layout(Id).BaseAddr)
        << P.array(Id).Name;
    EXPECT_EQ(DL.layout(Id).Dims, Orig.layout(Id).Dims);
  }
}

TEST(Candidate, PadLayoutProjectsAndMaterializesExactly) {
  // The "never worse than PAD" guarantee rests on this: PAD's layout
  // must survive a round trip through candidate coordinates byte for
  // byte.
  for (const char *Name : {"expl", "tomcatv", "dgefa", "jacobi"}) {
    ir::Program P = smallKernel(Name);
    layout::DataLayout Pad =
        pad::runPad(P, CacheConfig::base16K()).Layout;
    layout::DataLayout RoundTrip =
        search::materialize(P, search::project(Pad));
    for (unsigned Id = 0; Id != Pad.numArrays(); ++Id) {
      EXPECT_EQ(RoundTrip.layout(Id).BaseAddr, Pad.layout(Id).BaseAddr)
          << Name << "/" << P.array(Id).Name;
      EXPECT_EQ(RoundTrip.layout(Id).Dims, Pad.layout(Id).Dims)
          << Name << "/" << P.array(Id).Name;
    }
  }
}

TEST(Candidate, KeyDistinguishesCandidates) {
  ir::Program P = smallKernel("expl");
  search::Candidate A = search::zeroCandidate(P);
  search::Candidate B = A;
  ASSERT_FALSE(B.GapBytes.empty());
  B.GapBytes.back() += 32;
  EXPECT_NE(A.key(), B.key());
  EXPECT_EQ(A.key(), search::zeroCandidate(P).key());
}

//===----------------------------------------------------------------------===//
// Candidate generator
//===----------------------------------------------------------------------===//

TEST(CandidateGenerator, SeedsContainPadFirstAndAreDeduplicated) {
  ir::Program P = smallKernel("expl");
  CacheConfig Cache = CacheConfig::base16K();
  search::CandidateGenerator Gen(P, Cache);
  ASSERT_FALSE(Gen.seeds().empty());
  EXPECT_EQ(Gen.padSeedIndex(), 0u);
  EXPECT_EQ(Gen.seeds().front(),
            search::project(pad::runPad(P, Cache).Layout));
  for (size_t I = 0; I != Gen.seeds().size(); ++I)
    for (size_t J = I + 1; J != Gen.seeds().size(); ++J)
      EXPECT_FALSE(Gen.seeds()[I] == Gen.seeds()[J])
          << "duplicate seeds " << I << "," << J;
}

TEST(CandidateGenerator, NeighborsRespectSafetyAndBounds) {
  ir::Program P = smallKernel("dgefa");
  CacheConfig Cache = CacheConfig::base16K();
  search::CandidateGenerator Gen(P, Cache);
  std::mt19937_64 Rng(7);
  search::Candidate Base = search::zeroCandidate(P);
  for (int Round = 0; Round != 20; ++Round) {
    for (const search::Candidate &C :
         Gen.neighbors(Base, Rng, 8)) {
      for (unsigned Id = 0; Id != P.arrays().size(); ++Id) {
        if (!P.array(Id).isScalar() && !Gen.safety().CanPadIntra[Id]) {
          for (int64_t Pad : C.DimPads[Id])
            EXPECT_EQ(Pad, 0) << P.array(Id).Name;
        }
        if (P.array(Id).isScalar() || !Gen.safety().CanMoveBase[Id]) {
          EXPECT_EQ(C.GapBytes[Id], 0) << P.array(Id).Name;
        }
        for (int64_t Pad : C.DimPads[Id])
          EXPECT_GE(Pad, 0);
        EXPECT_GE(C.GapBytes[Id], 0);
        EXPECT_LE(C.GapBytes[Id], Cache.waySpanBytes());
      }
    }
  }
}

TEST(CandidateGenerator, NeighborsAreDeterministicGivenRngState) {
  ir::Program P = smallKernel("expl");
  search::CandidateGenerator Gen(P, CacheConfig::base16K());
  search::Candidate Base = search::zeroCandidate(P);
  std::mt19937_64 RngA(99), RngB(99);
  auto A = Gen.neighbors(Base, RngA, 8);
  auto B = Gen.neighbors(Base, RngB, 8);
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Cost models
//===----------------------------------------------------------------------===//

TEST(CostModel, BothModelsPreferPadOverOriginalOnExpl) {
  ir::Program P = kernels::makeKernel("expl");
  CacheConfig Cache = CacheConfig::base16K();
  layout::DataLayout Orig = layout::originalLayout(P);
  layout::DataLayout Pad = pad::runPad(P, Cache).Layout;
  search::SimulationCostModel Exact(Cache);
  search::StaticCostModel Static(Cache);
  EXPECT_LT(Exact.evaluate(Pad).Cost, Exact.evaluate(Orig).Cost);
  EXPECT_LT(Static.evaluate(Pad).Cost, Static.evaluate(Orig).Cost);
}

TEST(CostModel, SimulationCountsEveryAccess) {
  ir::Program P = smallKernel("expl");
  layout::DataLayout Orig = layout::originalLayout(P);
  search::SimulationCostModel Exact(CacheConfig::base16K());
  search::CostSample S = Exact.evaluate(Orig);
  EXPECT_GT(S.Accesses, 0u);
  EXPECT_GE(S.Accesses, static_cast<uint64_t>(S.Cost));
}

//===----------------------------------------------------------------------===//
// Search engine
//===----------------------------------------------------------------------===//

TEST(SearchEngine, SameSeedAndBudgetGiveIdenticalResults) {
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 16;
  Opts.Seed = 42;
  search::SearchResult A = search::runSearch(P, Opts);
  search::SearchResult B = search::runSearch(P, Opts);
  EXPECT_EQ(A.Best, B.Best);
  EXPECT_EQ(A.BestMisses, B.BestMisses);
  EXPECT_EQ(A.ExactEvaluations, B.ExactEvaluations);
  EXPECT_EQ(A.Log, B.Log);
}

TEST(SearchEngine, ResultIndependentOfThreadCount) {
  // The acceptance criterion: --threads N must not change the layout the
  // search returns, only how fast it gets there.
  for (const char *Name : {"expl", "dgefa"}) {
    ir::Program P = smallKernel(Name);
    search::SearchOptions Opts;
    Opts.EvalBudget = 16;
    Opts.Seed = 3;
    Opts.Threads = 1;
    search::SearchResult Serial = search::runSearch(P, Opts);
    Opts.Threads = 4;
    search::SearchResult Parallel = search::runSearch(P, Opts);
    EXPECT_EQ(Serial.Best, Parallel.Best) << Name;
    EXPECT_EQ(Serial.BestMisses, Parallel.BestMisses) << Name;
    EXPECT_EQ(Serial.Log, Parallel.Log) << Name;
  }
}

TEST(SearchEngine, ReplayAndDirectEvaluationAgreeExactly) {
  // --replay off is an escape hatch, not a different search: with the
  // same seed and budget both modes must visit the same candidates and
  // report bit-identical results, including under worker threads.
  for (const char *Name : {"expl", "jacobi", "dgefa"}) {
    ir::Program P = smallKernel(Name);
    search::SearchOptions Opts;
    Opts.EvalBudget = 16;
    Opts.Seed = 7;
    Opts.Threads = 2;
    Opts.UseReplay = true;
    search::SearchResult Replay = search::runSearch(P, Opts);
    Opts.UseReplay = false;
    search::SearchResult Direct = search::runSearch(P, Opts);
    EXPECT_EQ(Replay.Best, Direct.Best) << Name;
    EXPECT_EQ(Replay.BestMisses, Direct.BestMisses) << Name;
    EXPECT_EQ(Replay.ExactEvaluations, Direct.ExactEvaluations) << Name;
    EXPECT_EQ(Replay.Log, Direct.Log) << Name;
  }
}

TEST(SearchEngine, BatchWidthDoesNotChangeTheResult) {
  // --batch K is a throughput knob with the same contract as --replay
  // and --threads: any width, thread count and engine must visit the
  // same candidates and return bit-identical results, under a weighted
  // single-level objective too (every engine must rank by
  // Weight_l1 * Misses). Widths cover auto, sequential, a width below
  // the break-even and the 8- and 16-lane zmm rows; 4 threads split
  // rounds below the break-even into sequential singles. The NoZmm
  // dispatch is the path of a host without AVX-512, where every width
  // replays sequentially.
  using Dispatch = exec::MultiTraceReplayer::Dispatch;
  for (const char *Name : {"expl", "dgefa"}) {
    ir::Program P = smallKernel(Name);
    const bool HostZmm = exec::MultiTraceReplayer::zmmLanes(
                             *exec::RecordedTrace::record(P),
                             CacheConfig::base16K()) != 0;
    for (const char *Weights : {"", "l1=2"}) {
      search::SearchOptions Opts;
      Opts.EvalBudget = 16;
      Opts.Seed = 11;
      if (*Weights) {
        Opts.Machine = MachineModel::singleLevel(Opts.Cache);
        ASSERT_TRUE(Opts.Machine.applyWeights(Weights));
      }
      Opts.BatchK = 1;
      Opts.Threads = 1;
      search::SearchResult Sequential = search::runSearch(P, Opts);
      EXPECT_EQ(Sequential.BatchWidth, 1u) << Name;
      for (Dispatch D : {Dispatch::Auto, Dispatch::NoZmm}) {
        exec::MultiTraceReplayer::setDispatchForTesting(D);
        const bool Zmm = HostZmm && D == Dispatch::Auto;
        for (unsigned K : {0u, 1u, 3u, 8u, 16u})
          for (unsigned Threads : {1u, 4u}) {
            Opts.BatchK = K;
            Opts.Threads = Threads;
            search::SearchResult Batched = search::runSearch(P, Opts);
            std::ostringstream Ctx;
            Ctx << Name << " weights '" << Weights << "' K=" << K
                << " threads=" << Threads
                << (D == Dispatch::NoZmm ? " no-zmm" : "");
            EXPECT_EQ(Batched.BatchWidth, Zmm ? (K == 0 ? 16u : K) : 1u)
                << Ctx.str();
            EXPECT_EQ(Sequential.Best, Batched.Best) << Ctx.str();
            EXPECT_EQ(Sequential.BestMisses, Batched.BestMisses)
                << Ctx.str();
            EXPECT_EQ(Sequential.ExactEvaluations,
                      Batched.ExactEvaluations)
                << Ctx.str();
            EXPECT_EQ(Sequential.Log, Batched.Log) << Ctx.str();
          }
      }
      exec::MultiTraceReplayer::setDispatchForTesting(Dispatch::Auto);
    }
  }
}

TEST(SearchEngine, NeverWorseThanPadBaseline) {
  for (const char *Name : {"expl", "jacobi", "dgefa", "chol"}) {
    ir::Program P = smallKernel(Name);
    search::SearchOptions Opts;
    Opts.EvalBudget = 12;
    search::SearchResult R = search::runSearch(P, Opts);
    EXPECT_LE(R.BestMisses, R.PadMisses) << Name;
    // Cross-check PadMisses against an independent simulation of the
    // real PAD layout, so the guarantee is not self-referential.
    search::SimulationCostModel Exact(Opts.Cache);
    EXPECT_EQ(R.PadMisses,
              Exact.evaluate(pad::runPad(P, Opts.Cache).Layout).Cost)
        << Name;
  }
}

TEST(SearchEngine, RespectsEvaluationBudget) {
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 10;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_LE(R.ExactEvaluations, Opts.EvalBudget);
  EXPECT_GE(R.ExactEvaluations, 3u); // Seeds always run.
}

TEST(SearchEngine, ImprovesOnExplWithDefaultBudget) {
  // Regression guard for the headline result: on EXPL at the paper's
  // base cache the search strictly beats the PAD heuristic.
  ir::Program P = kernels::makeKernel("expl");
  search::SearchOptions Opts;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_LT(R.BestMisses, R.PadMisses);
}

TEST(SearchEngine, BestLayoutMatchesReportedCost) {
  ir::Program P = smallKernel("tomcatv");
  search::SearchOptions Opts;
  Opts.EvalBudget = 12;
  search::SearchResult R = search::runSearch(P, Opts);
  search::SimulationCostModel Exact(Opts.Cache);
  EXPECT_EQ(Exact.evaluate(R.BestLayout).Cost, R.BestMisses);
  EXPECT_EQ(Exact.evaluate(search::materialize(P, R.Best)).Cost,
            R.BestMisses);
}

//===----------------------------------------------------------------------===//
// Graceful degradation
//===----------------------------------------------------------------------===//

TEST(SearchEngine, ExpiredDeadlineStillBeatsOrMatchesPad) {
  // Acceptance criterion: a deadline that expires immediately must
  // degrade to best-so-far — never worse than the PAD seed — and say
  // why it stopped.
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 64;
  Opts.DeadlineSeconds = 1e-9;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_LE(R.BestMisses, R.PadMisses);
  EXPECT_NE(R.Outcome, search::SearchOutcome::Completed);
  EXPECT_EQ(R.Outcome, search::SearchOutcome::DeadlineExpired);
  EXPECT_FALSE(R.OutcomeDetail.empty());
  // The returned layout is still coherent with the reported cost.
  search::SimulationCostModel Exact(Opts.Cache);
  EXPECT_EQ(Exact.evaluate(R.BestLayout).Cost, R.BestMisses);
}

TEST(SearchEngine, CancellationTokenStopsTheSearch) {
  ir::Program P = smallKernel("expl");
  std::atomic<bool> Cancel{true}; // Pre-cancelled: stop at first check.
  search::SearchOptions Opts;
  Opts.EvalBudget = 64;
  Opts.Cancel = &Cancel;
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_EQ(R.Outcome, search::SearchOutcome::Cancelled);
  EXPECT_LE(R.BestMisses, R.PadMisses); // Seeds are evaluated regardless.
}

TEST(SearchEngine, BudgetExhaustionIsReportedAsOutcome) {
  ir::Program P = smallKernel("expl");
  search::SearchOptions Opts;
  Opts.EvalBudget = 4; // Seeds alone nearly consume this.
  search::SearchResult R = search::runSearch(P, Opts);
  EXPECT_EQ(R.Outcome, search::SearchOutcome::BudgetExhausted);
  EXPECT_LE(R.BestMisses, R.PadMisses);
}

TEST(SearchEngine, OutcomeNamesAreStable) {
  // padtool prints these; keep the spelling pinned.
  EXPECT_STREQ(search::outcomeName(search::SearchOutcome::Completed),
               "completed");
  EXPECT_STREQ(
      search::outcomeName(search::SearchOutcome::BudgetExhausted),
      "budget exhausted");
  EXPECT_STREQ(
      search::outcomeName(search::SearchOutcome::DeadlineExpired),
      "deadline expired");
  EXPECT_STREQ(search::outcomeName(search::SearchOutcome::Cancelled),
               "cancelled");
  EXPECT_STREQ(
      search::outcomeName(search::SearchOutcome::EvaluationFailed),
      "evaluation failed");
}

TEST(SearchEngine, CompletedRunsReportCompletion) {
  // One tiny array: no padding can beat the compulsory misses, so every
  // round is dry and the search finishes with Completed — either by
  // exhausting the neighborhood or by running out of fresh candidates —
  // well before the generous budget runs out.
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(R"(program t
array A : real[4]
loop i = 1, 4 {
  A[i] = 1.0
}
)",
                                  Diags);
  ASSERT_TRUE(P) << Diags.str();
  search::SearchOptions Opts;
  Opts.EvalBudget = 100000;
  search::SearchResult Res = search::runSearch(*P, Opts);
  EXPECT_EQ(Res.Outcome, search::SearchOutcome::Completed);
  EXPECT_FALSE(Res.OutcomeDetail.empty());
}
