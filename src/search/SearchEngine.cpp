//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "search/SearchEngine.h"

#include "pipeline/PadPipeline.h"
#include "search/CandidateGenerator.h"
#include "search/CostModel.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <set>
#include <span>
#include <sstream>

using namespace padx;
using namespace padx::search;

namespace {

/// Consecutive rounds allowed to produce no evaluable candidate (all
/// duplicates) before the search concludes the neighborhood is
/// exhausted. Purely a liveness guard; budget is the real bound.
constexpr unsigned kMaxDryRounds = 16;

} // namespace

const char *search::prescreenModeName(PrescreenMode M) {
  switch (M) {
  case PrescreenMode::Off:
    return "off";
  case PrescreenMode::On:
    return "on";
  case PrescreenMode::Auto:
    return "auto";
  }
  return "unknown";
}

const char *search::outcomeName(SearchOutcome O) {
  switch (O) {
  case SearchOutcome::Completed:
    return "completed";
  case SearchOutcome::BudgetExhausted:
    return "budget exhausted";
  case SearchOutcome::DeadlineExpired:
    return "deadline expired";
  case SearchOutcome::Cancelled:
    return "cancelled";
  case SearchOutcome::EvaluationFailed:
    return "evaluation failed";
  }
  return "unknown";
}

namespace {

/// The climb itself. Callers wrap this in a "search" pipeline pass; the
/// generator's seeds and the static pruner share \p PP's analysis
/// manager, while the simulation model (the only thing the pool touches)
/// stays manager-free.
SearchResult runSearchImpl(const ir::Program &P, const SearchOptions &Opts,
                           pipeline::PadPipeline &PP) {
  const MachineModel Machine = Opts.machine();
  CandidateGenerator Gen(P, Machine, PP);
  for (const layout::DataLayout &DL : Opts.SeedLayouts)
    Gen.addSeedLayout(DL);
  SimulationCostModel Exact(Machine);
  if (Opts.UseReplay)
    Exact.prepareReplay(P);
  Exact.setBatchWidth(Opts.BatchK);
  StaticCostModel Static(Machine, &PP.analysis());
  ThreadPool Pool(Opts.Threads);
  std::mt19937_64 Rng(Opts.Seed);

  const std::vector<Candidate> &Seeds = Gen.seeds();
  SearchResult R(materialize(P, Seeds[Gen.padSeedIndex()]));
  const unsigned Width = std::max(1u, Exact.batchWidth());
  R.BatchWidth = Width;

  // Exact-scores a batch on the pool; results land by submission index,
  // so reductions below are thread-count independent. The batch is
  // split over the pool's threads: each thread's share goes to the
  // model as chunks of up to the batch width — one pool task and one
  // trace pass per chunk — when it fills a batched pass, and as single
  // candidates, replayed sequentially, when it is below the model's
  // break-even. Every candidate's score is independent of its chunk,
  // so the determinism contract is untouched.
  const size_t Threads = Pool.numThreads();
  auto evaluateBatch = [&](const std::vector<Candidate> &Batch) {
    const auto Begin = std::chrono::steady_clock::now();
    std::vector<CostSample> Samples(Batch.size());
    const size_t Share = (Batch.size() + Threads - 1) / Threads;
    const size_t Chunk = Share >= SimulationCostModel::kBatchBreakEven
                             ? std::min<size_t>(Width, Share)
                             : 1;
    const size_t NumChunks = (Batch.size() + Chunk - 1) / Chunk;
    Pool.parallelFor(NumChunks, [&](size_t C) {
      const size_t First = C * Chunk;
      const size_t N = std::min<size_t>(Chunk, Batch.size() - First);
      std::vector<layout::DataLayout> Layouts;
      Layouts.reserve(N);
      for (size_t I = 0; I != N; ++I)
        Layouts.push_back(materialize(P, Batch[First + I]));
      Exact.evaluateBatch(Layouts,
                          std::span<CostSample>(&Samples[First], N));
    });
    R.ExactEvaluations += static_cast<unsigned>(Batch.size());
    R.ExactEvalSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Begin)
            .count();
    return Samples;
  };

  std::set<std::string> Seen;
  for (const Candidate &S : Seeds)
    Seen.insert(S.key());

  unsigned Budget =
      std::max<unsigned>(Opts.EvalBudget,
                         static_cast<unsigned>(Seeds.size()));
  std::vector<CostSample> SeedSamples = evaluateBatch(Seeds);
  Budget -= static_cast<unsigned>(Seeds.size());

  R.Accesses = SeedSamples.front().Accesses;
  R.PadMisses = SeedSamples[Gen.padSeedIndex()].Cost;
  R.PadLevelMisses = SeedSamples[Gen.padSeedIndex()].LevelMisses;
  for (unsigned I = 0; I != Machine.numLevels(); ++I)
    R.LevelNames.push_back(Machine.levelName(I));
  {
    Candidate Zero = zeroCandidate(P);
    auto It = std::find(Seeds.begin(), Seeds.end(), Zero);
    if (It == Seeds.end()) {
      // PAD was a no-op; seeds merged.
      R.OriginalMisses = R.PadMisses;
      R.OriginalLevelMisses = R.PadLevelMisses;
    } else {
      R.OriginalMisses = SeedSamples[It - Seeds.begin()].Cost;
      R.OriginalLevelMisses = SeedSamples[It - Seeds.begin()].LevelMisses;
    }
  }

  // Two-tier pre-screening: On forces it, Auto engages it when the
  // lattice predictor can see the program at all (a program of nothing
  // but indirect references scores 0 accesses statically — ranking by
  // the predictor would be noise, so Auto falls back to slack pruning).
  const bool PrescreenOn =
      Opts.Prescreen == PrescreenMode::On ||
      (Opts.Prescreen == PrescreenMode::Auto &&
       Static.evaluate(R.BestLayout).Accesses > 0);
  R.PrescreenActive = PrescreenOn;
  if (PrescreenOn) {
    std::ostringstream OS;
    OS << "prescreen active (" << prescreenModeName(Opts.Prescreen)
       << "): replaying top " << Opts.PrescreenKeep
       << " of each round statically ranked by " << Static.name();
    R.Log.push_back(OS.str());
  }

  Candidate GlobalBest = Seeds.front();
  double GlobalBestCost = SeedSamples.front().Cost;
  std::vector<double> GlobalBestLevels = SeedSamples.front().LevelMisses;
  for (size_t I = 1; I != Seeds.size(); ++I)
    if (SeedSamples[I].Cost < GlobalBestCost) {
      GlobalBest = Seeds[I];
      GlobalBestCost = SeedSamples[I].Cost;
      GlobalBestLevels = SeedSamples[I].LevelMisses;
    }
  {
    std::ostringstream OS;
    OS << "seeds: original " << R.OriginalMisses << ", PAD "
       << R.PadMisses << " misses; climbing from " << GlobalBestCost;
    R.Log.push_back(OS.str());
  }

  Candidate Current = GlobalBest;
  double CurrentCost = GlobalBestCost;
  unsigned Stale = 0, DryRounds = 0;

  // Degradation machinery: the climb below may stop for reasons other
  // than convergence (deadline, cancellation, a throwing evaluation).
  // Every stop path keeps the best-so-far candidate — which includes the
  // already-evaluated PAD seed — so the result is always valid.
  using Clock = std::chrono::steady_clock;
  const bool HasDeadline = Opts.DeadlineSeconds > 0;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             HasDeadline ? Opts.DeadlineSeconds : 0));
  auto Stop = [&](SearchOutcome O, std::string Detail) {
    R.Outcome = O;
    R.OutcomeDetail = std::move(Detail);
    std::ostringstream OS;
    OS << "stopped (" << outcomeName(O) << "): " << R.OutcomeDetail;
    R.Log.push_back(OS.str());
  };

  bool Running = true;
  while (Running) {
    if (Budget == 0) {
      Stop(SearchOutcome::BudgetExhausted,
           "used all " + std::to_string(R.ExactEvaluations) +
               " exact evaluations");
      break;
    }
    if (DryRounds >= kMaxDryRounds) {
      Stop(SearchOutcome::Completed,
           "neighborhood exhausted after " +
               std::to_string(R.Rounds) + " rounds");
      break;
    }
    if (Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed)) {
      Stop(SearchOutcome::Cancelled,
           "cancellation requested after " +
               std::to_string(R.ExactEvaluations) + " evaluations");
      break;
    }
    if (HasDeadline && Clock::now() >= Deadline) {
      std::ostringstream OS;
      OS << "deadline of " << Opts.DeadlineSeconds << "s expired after "
         << R.ExactEvaluations << " evaluations";
      Stop(SearchOutcome::DeadlineExpired, OS.str());
      break;
    }
    try {
    ++R.Rounds;
    // Pre-screening draws the same candidate pool full search would
    // (same RNG stream), so the two climbs walk identical trajectories
    // except where the predictor mis-ranks a round's winner out of the
    // replayed top — and the stall backfill below recovers even that
    // when the top fraction finds nothing.
    std::vector<Candidate> Proposed =
        Gen.neighbors(Current, Rng, Opts.NeighborsPerRound);
    R.CandidatesGenerated += static_cast<unsigned>(Proposed.size());
    if (Proposed.empty()) {
      // Program has no padding-safe knobs at all.
      Stop(SearchOutcome::Completed, "no padding-safe knobs to explore");
      break;
    }

    std::vector<Candidate> Fresh;
    Fresh.reserve(Proposed.size());
    for (Candidate &C : Proposed) {
      if (Seen.insert(C.key()).second)
        Fresh.push_back(std::move(C));
      else
        ++R.DuplicatesSkipped;
    }

    std::vector<Candidate> Deferred;
    std::vector<double> DeferredEst; // ascending: Deferred is ranked
    // Estimate of the worst candidate the screen kept: deferred
    // candidates tied with it lost only to the deterministic
    // tie-break, not to the predictor.
    double KeptBoundaryEst = -std::numeric_limits<double>::infinity();
    if (PrescreenOn && Fresh.size() > 1) {
      // Tier one: rank the whole round by predicted misses and hand
      // only the top fraction to the simulator. Runs on the generation
      // thread (the static model's manager is not thread-safe); ties
      // break toward the lower proposal index, keeping the climb
      // deterministic. The remainder is deferred, not dropped: a
      // stalled round replays it below before conceding.
      std::vector<double> Est(Fresh.size());
      for (size_t I = 0; I != Fresh.size(); ++I)
        Est[I] = Static.evaluate(materialize(P, Fresh[I])).Cost;
      double KeepFrac =
          std::min(1.0, std::max(0.0, Opts.PrescreenKeep));
      size_t Keep = std::max<size_t>(
          1, static_cast<size_t>(Fresh.size() * KeepFrac));
      if (Keep < Fresh.size()) {
        std::vector<size_t> Idx(Fresh.size());
        for (size_t I = 0; I != Idx.size(); ++I)
          Idx[I] = I;
        std::stable_sort(Idx.begin(), Idx.end(),
                         [&](size_t A, size_t B) {
                           return Est[A] < Est[B];
                         });
        std::vector<Candidate> Kept;
        Kept.reserve(Keep);
        for (size_t I = 0; I != Keep; ++I)
          Kept.push_back(std::move(Fresh[Idx[I]]));
        KeptBoundaryEst = Est[Idx[Keep - 1]];
        Deferred.reserve(Idx.size() - Keep);
        DeferredEst.reserve(Idx.size() - Keep);
        for (size_t I = Keep; I != Idx.size(); ++I) {
          Deferred.push_back(std::move(Fresh[Idx[I]]));
          DeferredEst.push_back(Est[Idx[I]]);
        }
        Fresh = std::move(Kept);
      }
    } else if (Opts.PruneSlack > 0 && Fresh.size() > 1) {
      // Rank by the cheap model first; only simulate candidates the
      // estimator does not consider clearly worse than the incumbent.
      double Incumbent =
          Static.evaluate(materialize(P, Current)).Cost;
      double Threshold = Incumbent * Opts.PruneSlack;
      std::vector<double> Est(Fresh.size());
      for (size_t I = 0; I != Fresh.size(); ++I)
        Est[I] = Static.evaluate(materialize(P, Fresh[I])).Cost;
      size_t KeepMin =
          std::min_element(Est.begin(), Est.end()) - Est.begin();
      std::vector<Candidate> Kept;
      Kept.reserve(Fresh.size());
      for (size_t I = 0; I != Fresh.size(); ++I) {
        // Always keep the estimator's favorite so a round is never
        // pruned empty.
        if (I == KeepMin || Est[I] <= Threshold)
          Kept.push_back(std::move(Fresh[I]));
        else
          ++R.PrunedStatic;
      }
      Fresh = std::move(Kept);
    }

    if (Fresh.size() > Budget)
      Fresh.resize(Budget);
    if (Fresh.empty()) {
      ++DryRounds;
      ++Stale;
    } else {
      DryRounds = 0;
      // Replays a batch and folds its best into the climb state;
      // returns whether it beat the incumbent.
      auto Replay = [&](std::vector<Candidate> &Batch) {
        std::vector<CostSample> Samples = evaluateBatch(Batch);
        Budget -= static_cast<unsigned>(Batch.size());
        size_t RoundBest = 0;
        for (size_t I = 1; I != Samples.size(); ++I)
          if (Samples[I].Cost < Samples[RoundBest].Cost)
            RoundBest = I;
        if (Samples[RoundBest].Cost >= CurrentCost)
          return false;
        Current = Batch[RoundBest];
        CurrentCost = Samples[RoundBest].Cost;
        if (CurrentCost < GlobalBestCost) {
          GlobalBest = Current;
          GlobalBestCost = CurrentCost;
          GlobalBestLevels = Samples[RoundBest].LevelMisses;
          std::ostringstream OS;
          OS << "round " << R.Rounds << ": improved to "
             << GlobalBestCost << " misses (" << GlobalBest.key()
             << ")";
          R.Log.push_back(OS.str());
        }
        return true;
      };

      unsigned DeferredCount = static_cast<unsigned>(Deferred.size());
      unsigned Backfilled = 0;
      double Incumbent = CurrentCost;
      bool Improved = Replay(Fresh);
      if (DeferredCount != 0 && Budget > 0) {
        if (Improved) {
          // Bound continuation: even after the top fraction improved,
          // a deferred candidate is still a credible round winner if
          // the predictor scored it below the pre-round incumbent
          // (both are miss counts), or tied it with a candidate the
          // screen did replay — a tie says the predictor has no
          // opinion, so the tie-break alone must not cost a win.
          size_t Take = 0;
          while (Take != Deferred.size() &&
                 (DeferredEst[Take] < Incumbent ||
                  DeferredEst[Take] <= KeptBoundaryEst))
            ++Take;
          Deferred.resize(Take);
        }
        // Otherwise stall backfill: a round whose predictor-ranked top
        // found nothing replays the whole skipped remainder before
        // conceding — the screen defers simulations, never loses one.
        if (Deferred.size() > Budget)
          Deferred.resize(Budget);
        Backfilled = static_cast<unsigned>(Deferred.size());
        if (!Deferred.empty())
          Improved = Replay(Deferred) || Improved;
      }
      R.PrescreenSkipped += DeferredCount - Backfilled;
      R.PrunedStatic += DeferredCount - Backfilled;
      if (Improved)
        Stale = 0;
      else
        ++Stale;
    }

    if (Stale > Opts.MaxStaleRounds && Budget > 0) {
      // Local optimum: restart the climb from a perturbed heuristic
      // seed; the global best is kept aside.
      ++R.Restarts;
      Stale = 0;
      Current = Gen.perturb(Seeds[R.Restarts % Seeds.size()], Rng,
                            Opts.RestartPerturbMoves);
      CurrentCost = std::numeric_limits<double>::infinity();
      if (Seen.insert(Current.key()).second && Budget > 0) {
        std::vector<CostSample> S = evaluateBatch({Current});
        Budget -= 1;
        CurrentCost = S.front().Cost;
        if (CurrentCost < GlobalBestCost) {
          GlobalBest = Current;
          GlobalBestCost = CurrentCost;
          GlobalBestLevels = S.front().LevelMisses;
        }
      }
    }
    } catch (const std::exception &E) {
      // A cost-model task died (bad_alloc, a sanitizer-adjacent logic
      // error surfaced as an exception, ...). Degrade to the best
      // candidate evaluated so far instead of tearing the caller down.
      Stop(SearchOutcome::EvaluationFailed, E.what());
      Running = false;
    }
  }

  R.Best = GlobalBest;
  R.BestMisses = GlobalBestCost;
  R.BestLevelMisses = std::move(GlobalBestLevels);
  R.BestLayout = materialize(P, GlobalBest);
  {
    std::ostringstream OS;
    OS << "done: " << R.ExactEvaluations << " simulations, "
       << R.PrunedStatic << " pruned statically, "
       << R.DuplicatesSkipped << " duplicates, " << R.Restarts
       << " restarts; best " << GlobalBestCost << " vs PAD "
       << R.PadMisses << " misses";
    R.Log.push_back(OS.str());
  }
  return R;
}

} // namespace

SearchResult search::runSearch(const ir::Program &P,
                               const SearchOptions &Opts) {
  pipeline::PadPipeline PP(P, Opts.AnalysisCache);
  return runSearch(P, Opts, PP);
}

SearchResult search::runSearch(const ir::Program &P,
                               const SearchOptions &Opts,
                               pipeline::PadPipeline &PP) {
  return PP.run("search", [&] { return runSearchImpl(P, Opts, PP); });
}
