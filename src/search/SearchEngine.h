//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulation-guided padding search: a greedy hill-climb with restarts
/// over the joint space of inter-variable base gaps and intra-variable
/// dimension pads. Candidates are seeded from the closed-form heuristics
/// (so the result is never worse than PAD), neighbors are proposed by
/// the CandidateGenerator, cheap static estimation prunes unpromising
/// ones, and the survivors are scored exactly by trace-driven simulation
/// — concurrently, on a support::ThreadPool.
///
/// Determinism contract: for a fixed program, options and seed the
/// result is bit-identical for every thread count. All randomness runs
/// on the single-threaded generation side; parallel evaluations are
/// pure, keyed by submission index, and reduced in index order with ties
/// broken toward the lower index.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SEARCH_SEARCHENGINE_H
#define PADX_SEARCH_SEARCHENGINE_H

#include "machine/MachineModel.h"
#include "search/Candidate.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace padx {
namespace pipeline {
class PadPipeline;
} // namespace pipeline

namespace search {

/// Two-tier candidate evaluation: statically score every proposed
/// neighbor with the lattice predictor and replay only the top fraction
/// through the simulator. Off keeps the classic slack-based pruning;
/// Auto enables pre-screening whenever the predictor can see the
/// program (it has analyzable references), falling back to Off
/// otherwise.
enum class PrescreenMode { Off, On, Auto };

const char *prescreenModeName(PrescreenMode M);

struct SearchOptions {
  CacheConfig Cache = CacheConfig::base16K();

  /// Machine model to optimize for. Empty (the default) means the
  /// single level \p Cache — the pre-hierarchy behavior, bit-identical.
  /// With levels set, \p Cache is ignored and the climb ranks by the
  /// weighted per-level miss cost sum_l Weight_l * Misses_l
  /// (--machine / --weights on the tools).
  MachineModel Machine;

  /// The machine the search effectively runs on.
  MachineModel machine() const {
    return Machine.Levels.empty() ? MachineModel::singleLevel(Cache)
                                  : Machine;
  }

  /// Maximum exact (simulation) evaluations — the search's time budget.
  /// Raised to the seed count when smaller: the baselines always run.
  unsigned EvalBudget = 48;
  /// Worker threads for candidate evaluation; 0 = hardware concurrency.
  unsigned Threads = 1;
  /// RNG seed for neighbor proposals and restart perturbations.
  uint64_t Seed = 0;

  /// Extra warm-start layouts, evaluated alongside the heuristic seeds
  /// (exempt from pre-screening, like every seed). Each is projected
  /// into candidate coordinates and clamped to the safety analysis; a
  /// layout produced by a previous search on the same program projects
  /// losslessly, so chaining searches — e.g. re-optimizing an L1-only
  /// result under a multi-level objective — never returns a worse cost
  /// than the warm start.
  std::vector<layout::DataLayout> SeedLayouts;

  /// Neighbors proposed per hill-climb round.
  unsigned NeighborsPerRound = 8;
  /// Rounds without improvement before restarting from a perturbed seed.
  unsigned MaxStaleRounds = 2;
  /// Random moves applied to a seed on restart.
  unsigned RestartPerturbMoves = 3;

  /// Prune candidates whose static estimate exceeds the incumbent's by
  /// this factor before paying for simulation. <= 0 disables pruning.
  /// Ignored while pre-screening is active (the rank cut subsumes it).
  double PruneSlack = 1.10;

  /// Two-tier pre-screened evaluation (--prescreen on the tools). The
  /// seed candidates are exempt — they always replay, preserving the
  /// "never worse than PAD" guarantee.
  PrescreenMode Prescreen = PrescreenMode::Off;
  /// Fraction of each round's fresh candidates the active pre-screen
  /// keeps for exact evaluation (at least one survives per round).
  double PrescreenKeep = 0.5;

  /// Wall-clock deadline in seconds (0 = none). The seed evaluations
  /// always run — they carry the "never worse than PAD" guarantee — but
  /// the climb stops at the deadline and the best-so-far candidate is
  /// returned with a DeadlineExpired outcome.
  double DeadlineSeconds = 0;

  /// Optional cancellation token polled between evaluation batches. Set
  /// it to true from another thread (a signal handler, a serving
  /// front end shedding load) to stop the climb at the next batch
  /// boundary with a Cancelled outcome.
  const std::atomic<bool> *Cancel = nullptr;

  /// Record the program's access stream once and replay it per candidate
  /// instead of re-walking the IR for every exact evaluation. Results
  /// are bit-identical either way; this is purely a speed knob (and the
  /// escape hatch when the recorder misbehaves: --replay off). Programs
  /// the recorder declines (indirect subscripts) fall back to direct
  /// tracing automatically.
  bool UseReplay = true;

  /// Most lanes per batched exact-evaluation pass: the replayer
  /// streams the recorded trace once while scoring up to this many
  /// candidates in parallel lanes. 0 = auto (the cost model's default,
  /// 16), 1 = sequential replay; capped at what the host's zmm kernels
  /// take (exec::MultiTraceReplayer::zmmLanes — sequential replay
  /// without AVX-512) and ignored when replay is off or declined. Each
  /// round is split over the pool's threads, and a share below
  /// SimulationCostModel::kBatchBreakEven replays sequentially. Results
  /// are bit-identical at every width — like UseReplay, purely a
  /// throughput knob (--batch on the tools).
  unsigned BatchK = 0;

  /// Memoize analysis results (reference groups, iteration counts,
  /// static estimates, conflict reports) in the pipeline's
  /// AnalysisManager across candidate evaluations. Results are
  /// bit-identical either way; like UseReplay this is purely a speed
  /// knob (--analysis-cache off is the escape hatch and the benchmark
  /// baseline). Ignored by the pipeline overload of runSearch, which
  /// uses the caller's pipeline as built.
  bool AnalysisCache = true;
};

/// Why the search stopped. Everything except Completed is a degraded
/// stop: the result is still valid (never worse than the PAD seed), the
/// climb just did not run to convergence.
enum class SearchOutcome {
  Completed,        ///< Converged: neighborhood exhausted or no knobs.
  BudgetExhausted,  ///< Used every exact evaluation the budget allowed.
  DeadlineExpired,  ///< Hit SearchOptions::DeadlineSeconds.
  Cancelled,        ///< The cancellation token was set.
  EvaluationFailed, ///< A cost-model task threw (e.g. out of memory).
};

const char *outcomeName(SearchOutcome O);

struct SearchResult {
  /// Winning candidate and its materialized layout.
  Candidate Best;
  layout::DataLayout BestLayout;

  /// Why the search stopped, with a human-readable reason in
  /// OutcomeDetail (e.g. "deadline of 0.5s expired after 12
  /// evaluations").
  SearchOutcome Outcome = SearchOutcome::Completed;
  std::string OutcomeDetail;

  /// Exact (simulated) scores. On a single-level machine these are miss
  /// counts; on a multi-level one they are weighted per-level miss
  /// costs (sum_l Weight_l * Misses_l) — the quantity the climb ranks
  /// by — with the unweighted per-level counts in the Level* arrays
  /// below. Accesses counts the first cache level either way.
  double BestMisses = 0;
  uint64_t Accesses = 0;
  double OriginalMisses = 0;
  double PadMisses = 0; ///< The PAD heuristic baseline.

  /// Per-level breakdowns, aligned with each other: level names from
  /// the machine model and unweighted simulated misses for the best,
  /// original and PAD layouts. Singleton vectors on a single-level
  /// machine.
  std::vector<std::string> LevelNames;
  std::vector<double> BestLevelMisses;
  std::vector<double> OriginalLevelMisses;
  std::vector<double> PadLevelMisses;

  double bestPercent() const { return percent(BestMisses); }
  double originalPercent() const { return percent(OriginalMisses); }
  double padPercent() const { return percent(PadMisses); }

  // Search statistics for the report.
  unsigned CandidatesGenerated = 0; ///< Proposed, including duplicates.
  unsigned DuplicatesSkipped = 0;
  unsigned PrunedStatic = 0; ///< Skipped on the static model's verdict.
  /// True when the two-tier pre-screen ran (Prescreen=On, or Auto with
  /// a predictor-visible program); PrescreenSkipped counts candidates
  /// it kept away from the simulator (a subset of PrunedStatic).
  bool PrescreenActive = false;
  unsigned PrescreenSkipped = 0;
  unsigned ExactEvaluations = 0;
  unsigned Rounds = 0;
  unsigned Restarts = 0;
  /// Effective lane cap per batched exact-evaluation pass (1 =
  /// sequential).
  unsigned BatchWidth = 1;
  /// Wall-clock seconds spent inside exact-evaluation batches; with
  /// ExactEvaluations this yields the candidates/sec the tools report.
  double ExactEvalSeconds = 0;

  /// One line per accepted improvement, for --report style output.
  std::vector<std::string> Log;

  explicit SearchResult(layout::DataLayout Layout)
      : BestLayout(std::move(Layout)) {}

private:
  double percent(double Misses) const {
    return Accesses == 0
               ? 0.0
               : 100.0 * Misses / static_cast<double>(Accesses);
  }
};

/// Runs the search on \p P. \p P must outlive the result (the layout
/// references it). Builds a private pipeline honoring
/// SearchOptions::AnalysisCache and forwards to the overload below.
SearchResult runSearch(const ir::Program &P, const SearchOptions &Opts);
SearchResult runSearch(ir::Program &&, const SearchOptions &) = delete;

/// As above through an instrumented pipeline over the same program: the
/// heuristic seeds, static pruning, and greedy repair all route through
/// \p PP.analysis(), and the climb is recorded as a "search" pass in
/// \p PP's stats. The manager is only ever touched from the calling
/// thread — the pool workers run the simulation model, which never uses
/// it — so the engine's determinism contract is unchanged.
SearchResult runSearch(const ir::Program &P, const SearchOptions &Opts,
                       pipeline::PadPipeline &PP);
SearchResult runSearch(ir::Program &&, const SearchOptions &,
                       pipeline::PadPipeline &) = delete;

} // namespace search
} // namespace padx

#endif // PADX_SEARCH_SEARCHENGINE_H
