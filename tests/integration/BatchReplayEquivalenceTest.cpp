//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batched replay equivalence over the fuzz corpus: for every kernel,
/// cache geometry and padding candidate, the per-candidate CacheStats a
/// MultiTraceReplayer produces must be bit-identical to a sequential
/// TraceReplayer into a fresh CacheSim, with MaxAccesses truncation
/// applied. On the direct-mapped geometry every width from 1 to 16 runs
/// through the AVX-512 kernels — the masked 8-lane row, the one-zmm
/// 32-bit 16-lane row, and (forced by the test-only dispatch override)
/// the two-zmm 64-bit 16-lane row — and through the sequential
/// fallback a host without AVX-512 takes. Associative geometries run
/// the shared-decode per-lane probe at 2, 4, 8 and 16 lanes plus ragged
/// tails. Programs the recorder declines (indirect subscripts) must
/// keep scoring through the cost model's per-item direct fallback with
/// unchanged results, batched entry included. Batching is a throughput
/// lever only; any stats divergence here is a correctness bug.
///
//===----------------------------------------------------------------------===//

#include "exec/MultiTraceReplayer.h"
#include "exec/RecordedTrace.h"
#include "frontend/Parser.h"
#include "machine/MachineModel.h"
#include "search/Candidate.h"
#include "search/CostModel.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

using namespace padx;
using namespace padx::exec;

namespace {

/// Caps each simulated walk so the sweep stays fast under sanitizers —
/// and exercises the truncated-recording path on the large kernels.
constexpr uint64_t kMaxAccesses = 1u << 20;

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(PADX_CORPUS_DIR))
    if (Entry.path().extension() == ".pad")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  EXPECT_FALSE(Files.empty()) << "corpus missing at " PADX_CORPUS_DIR;
  return Files;
}

ir::Program parseFileOrDie(const std::filesystem::path &File) {
  std::ifstream In(File);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(Buf.str(), Diags);
  EXPECT_TRUE(P) << File << ": " << Diags.str();
  return std::move(*P);
}

/// Seventeen layouts per program (inter gaps crossed with column pads,
/// plus one odd extra), deliberately not a multiple of any tested
/// width, so every chunked sweep runs at least one full-width chunk —
/// 16 included — and ends in a ragged tail.
std::vector<layout::DataLayout> layoutSweep(const ir::Program &P,
                                            int64_t LineBytes) {
  std::vector<layout::DataLayout> Out;
  auto Push = [&](int64_t GapLines, int64_t ColPad) {
    search::Candidate C = search::zeroCandidate(P);
    for (unsigned A = 0; A != C.DimPads.size(); ++A) {
      if (!C.DimPads[A].empty())
        C.DimPads[A][0] = ColPad;
      const int64_t Elem = P.array(A).ElemSize;
      C.GapBytes[A] = (GapLines * LineBytes + Elem - 1) / Elem * Elem *
                      static_cast<int64_t>(A % 2 + 1);
    }
    Out.push_back(search::materialize(P, C));
  };
  for (int64_t GapLines : {0, 1, 2, 3})
    for (int64_t ColPad : {0, 1, 3, 7})
      Push(GapLines, ColPad);
  Push(5, 2);
  return Out;
}

void expectEqualStats(const sim::CacheStats &A, const sim::CacheStats &B,
                      const std::string &Context) {
  EXPECT_EQ(A.Accesses, B.Accesses) << Context;
  EXPECT_EQ(A.Misses, B.Misses) << Context;
  EXPECT_EQ(A.Reads, B.Reads) << Context;
  EXPECT_EQ(A.Writes, B.Writes) << Context;
  EXPECT_EQ(A.WriteBacks, B.WriteBacks) << Context;
}

/// Whether this host runs the AVX-512 zmm kernels at all.
bool hostHasZmm() {
#if PADX_REPLAY_AVX512
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

/// Restricts MultiTraceReplayer's engine choice for one scope.
struct ScopedDispatch {
  explicit ScopedDispatch(MultiTraceReplayer::Dispatch D) {
    MultiTraceReplayer::setDispatchForTesting(D);
  }
  ~ScopedDispatch() {
    MultiTraceReplayer::setDispatchForTesting(
        MultiTraceReplayer::Dispatch::Auto);
  }
};

/// Scores \p Layouts through one reused replayer in chunks of \p K, like
/// a search worker, checking each chunk's status against \p RefStatus.
std::vector<sim::CacheStats>
replayInChunks(const RecordedTrace &T, const CacheConfig &Cfg,
               const std::vector<layout::DataLayout> &Layouts, unsigned K,
               const std::vector<RunStatus> &RefStatus,
               const std::string &Context) {
  MultiTraceReplayer Batched(T, Cfg);
  std::vector<sim::CacheStats> Stats(Layouts.size());
  for (size_t Begin = 0; Begin != Layouts.size();) {
    const size_t N = std::min<size_t>(K, Layouts.size() - Begin);
    RunStatus S = Batched.replay(
        std::span<const layout::DataLayout>(&Layouts[Begin], N),
        std::span<sim::CacheStats>(&Stats[Begin], N));
    EXPECT_EQ(S, RefStatus[Begin]) << Context;
    Begin += N;
  }
  return Stats;
}

} // namespace

TEST(BatchReplayEquivalence, CorpusSweepIsBitIdenticalAtEveryWidth) {
  const CacheConfig Direct = CacheConfig::base16K();
  const std::vector<CacheConfig> Geometries = {
      Direct,                        // The paper's base: direct mapped.
      CacheConfig{16 * 1024, 32, 2}, // 2-way: per-lane probe fallback.
      CacheConfig{4 * 1024, 32, 0},  // Fully associative fallback.
  };
  using Dispatch = MultiTraceReplayer::Dispatch;
  RunOptions Opts;
  Opts.MaxAccesses = kMaxAccesses;

  for (const auto &File : corpusFiles()) {
    ir::Program P = parseFileOrDie(File);
    const std::string Name = File.filename().string();
    auto T = RecordedTrace::record(P, Opts, nullptr);
    if (!T)
      continue; // Declined programs are covered by the fallback test.

    TraceReplayer Sequential(*T);
    for (const CacheConfig &Cfg : Geometries) {
      const std::vector<layout::DataLayout> Layouts =
          layoutSweep(P, Cfg.LineBytes);

      // Sequential reference stats, one fresh simulator per candidate.
      std::vector<sim::CacheStats> Reference;
      std::vector<RunStatus> RefStatus;
      for (const layout::DataLayout &DL : Layouts) {
        sim::CacheSim Sim(Cfg);
        RefStatus.push_back(Sequential.replay(DL, Sim));
        Reference.push_back(Sim.stats());
      }
      auto Check = [&](unsigned K, const char *Engine) {
        const std::string Context = Name + " " + Cfg.describe() + " " +
                                    Engine + " K=" + std::to_string(K);
        std::vector<sim::CacheStats> Stats =
            replayInChunks(*T, Cfg, Layouts, K, RefStatus, Context);
        for (size_t I = 0; I != Layouts.size(); ++I)
          expectEqualStats(Stats[I], Reference[I],
                           Context + " candidate " + std::to_string(I));
      };

      if (Cfg == Direct) {
        // Every width through the zmm kernels; the 17-candidate sweep
        // leaves a ragged tail at every width but 1 and 17, so the
        // masked rows see both full and partial chunks. Zmm64 takes
        // 9-16 lanes through the two-zmm row the 32-bit gate otherwise
        // pre-empts; NoZmm is the sequential fallback of a host without
        // AVX-512.
        EXPECT_EQ(MultiTraceReplayer::zmmLanes(*T, Cfg),
                  hostHasZmm() ? 16u : 0u);
        for (unsigned K = 1; K <= MultiTraceReplayer::kMaxLanes; ++K)
          Check(K, "zmm");
        {
          ScopedDispatch Zmm64(Dispatch::Zmm64);
          for (unsigned K = 9; K <= MultiTraceReplayer::kMaxLanes; ++K)
            Check(K, "zmm64");
        }
        ScopedDispatch NoZmm(Dispatch::NoZmm);
        EXPECT_EQ(MultiTraceReplayer::zmmLanes(*T, Cfg), 0u);
        for (unsigned K : {1u, 3u, 16u})
          Check(K, "sequential");
        continue;
      }

      // Associative lanes: the shared-decode per-lane probe, full-width
      // chunks and ragged tails (a tail of 1 at every K), then single
      // ragged batches of 1, 3 and 5.
      EXPECT_EQ(MultiTraceReplayer::zmmLanes(*T, Cfg), 0u);
      for (unsigned K : {2u, 4u, 8u, 16u})
        Check(K, "per-lane");
      for (size_t N : {size_t(1), size_t(3), size_t(5)}) {
        MultiTraceReplayer Batched(*T, Cfg);
        std::vector<sim::CacheStats> Stats(N);
        Batched.replay(
            std::span<const layout::DataLayout>(Layouts.data(), N),
            std::span<sim::CacheStats>(Stats.data(), N));
        for (size_t I = 0; I != N; ++I)
          expectEqualStats(Stats[I], Reference[I],
                           Name + " " + Cfg.describe() + " ragged N=" +
                               std::to_string(N));
      }
    }
  }
}

TEST(BatchReplayEquivalence, ElementWiderThanLineTakesSpanningPath) {
  // 8-byte elements against a 4-byte line: every access straddles two
  // lines, so the batched replayer must route through the general
  // per-lane access() path and still match the sequential one.
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(R"(program p
array A : real[64]
array B : real[64]
loop i = 1, 64 {
  B[i] = A[i]
}
)",
                                  Diags);
  ASSERT_TRUE(P) << Diags.str();
  auto T = RecordedTrace::record(*P);
  ASSERT_NE(T, nullptr);
  const CacheConfig Tiny{256, 4, 1};
  TraceReplayer Sequential(*T);
  std::vector<layout::DataLayout> Layouts = layoutSweep(*P, 4);
  std::vector<sim::CacheStats> Stats(Layouts.size());
  MultiTraceReplayer Batched(*T, Tiny);
  Batched.replay(Layouts, Stats);
  for (size_t I = 0; I != Layouts.size(); ++I) {
    sim::CacheSim Sim(Tiny);
    Sequential.replay(Layouts[I], Sim);
    expectEqualStats(Stats[I], Sim.stats(),
                     "spanning candidate " + std::to_string(I));
  }
}

TEST(BatchReplayEquivalence, DeclinedProgramFallsBackPerItem) {
  // Indirect subscripts decline recording; the cost model's batched
  // entry must degrade to the per-item direct walk with identical
  // samples — at the requested width and at auto.
  DiagnosticEngine Diags;
  auto P = frontend::parseProgram(R"(program p
array X : real[64]
array IDX : int[64] init identity
loop i = 1, 64 {
  X[IDX[i]] = 2.0
}
)",
                                  Diags);
  ASSERT_TRUE(P) << Diags.str();
  ASSERT_EQ(RecordedTrace::record(*P), nullptr);

  search::SimulationCostModel M(CacheConfig::base16K());
  M.prepareReplay(*P);
  EXPECT_FALSE(M.usingReplay());
  for (unsigned K : {0u, 4u}) {
    M.setBatchWidth(K);
    EXPECT_EQ(M.batchWidth(), 1u);
    std::vector<layout::DataLayout> Layouts = layoutSweep(*P, 32);
    std::vector<search::CostSample> Batch(Layouts.size());
    M.evaluateBatch(Layouts, Batch);
    for (size_t I = 0; I != Layouts.size(); ++I) {
      search::CostSample Single = M.evaluate(Layouts[I]);
      EXPECT_EQ(Batch[I].Cost, Single.Cost) << I;
      EXPECT_EQ(Batch[I].Accesses, Single.Accesses) << I;
    }
  }
}

TEST(BatchReplayEquivalence, CostModelBatchMatchesPerItemReplay) {
  // Replay-capable program: the batched cost-model entry (chunking,
  // the sequential path below the break-even, thread-local batcher
  // reuse) must equal per-item evaluate() — on a weighted single-level
  // machine too, where both must carry Weight_l1 * Misses, and under
  // the dispatch of a host without AVX-512, where every chunk replays
  // sequentially.
  ir::Program P = parseFileOrDie(
      std::filesystem::path(PADX_CORPUS_DIR) / "small_stencil.pad");
  MachineModel Weighted = MachineModel::singleLevel(CacheConfig::base16K());
  ASSERT_TRUE(Weighted.applyWeights("l1=2"));
  const std::vector<layout::DataLayout> Layouts = layoutSweep(P, 32);
  using Dispatch = MultiTraceReplayer::Dispatch;
  for (Dispatch D : {Dispatch::Auto, Dispatch::NoZmm}) {
    ScopedDispatch Scope(D);
    const bool Zmm = D == Dispatch::Auto && hostHasZmm();
    for (const MachineModel &M :
         {MachineModel::singleLevel(CacheConfig::base16K()), Weighted}) {
      search::SimulationCostModel Model(M);
      Model.prepareReplay(P);
      ASSERT_TRUE(Model.usingReplay());
      const double Weight = M.Levels.front().Weight;
      for (unsigned K : {1u, 2u, 3u, 4u, 8u, 16u, 100u}) {
        Model.setBatchWidth(K);
        EXPECT_EQ(Model.batchWidth(),
                  Zmm ? std::min(K, MultiTraceReplayer::kMaxLanes) : 1u);
        for (size_t N : {size_t(2), size_t(3), Layouts.size()}) {
          std::vector<search::CostSample> Batch(N);
          Model.evaluateBatch(
              std::span<const layout::DataLayout>(Layouts.data(), N),
              Batch);
          for (size_t I = 0; I != N; ++I) {
            search::CostSample Single = Model.evaluate(Layouts[I]);
            const std::string Context = "K=" + std::to_string(K) +
                                        " N=" + std::to_string(N) +
                                        " weight " +
                                        std::to_string(Weight) + " " +
                                        std::to_string(I);
            EXPECT_EQ(Batch[I].Cost, Single.Cost) << Context;
            EXPECT_EQ(Batch[I].Cost, Weight * Batch[I].LevelMisses[0])
                << Context;
            EXPECT_EQ(Batch[I].LevelMisses, Single.LevelMisses)
                << Context;
            EXPECT_EQ(Batch[I].Accesses, Single.Accesses) << Context;
          }
        }
      }
    }
  }
}
