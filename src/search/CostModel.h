//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost models the search engine ranks layout candidates with. The
/// interface is deliberately tiny — a layout goes in, a lower-is-better
/// score comes out — so the engine can mix a cheap model (static miss
/// estimation, used to prune unpromising candidates) with an exact one
/// (full trace-driven simulation, used to accept them). Evaluations must
/// be pure: the engine calls evaluate() concurrently from a thread pool.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SEARCH_COSTMODEL_H
#define PADX_SEARCH_COSTMODEL_H

#include "exec/MultiTraceReplayer.h"
#include "exec/RecordedTrace.h"
#include "layout/DataLayout.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace padx {
namespace pipeline {
class AnalysisManager;
} // namespace pipeline

namespace search {

/// Score of one evaluation; Cost is the ranking key — misses (estimated
/// or simulated) on a single-level machine, the weighted per-level sum
/// sum_l Weight_l * Misses_l on a multi-level one. Accesses is 0 when
/// the model does not count them; on a machine model it is the first
/// cache level's access count. LevelMisses holds the unweighted
/// per-level miss counts, aligned with MachineModel::Levels; models
/// constructed from a bare CacheConfig leave it with the single level's
/// misses.
struct CostSample {
  double Cost = 0;
  uint64_t Accesses = 0;
  std::vector<double> LevelMisses;

  double missRatePercent() const {
    return Accesses == 0
               ? 0.0
               : 100.0 * Cost / static_cast<double>(Accesses);
  }
};

class CostModel {
public:
  virtual ~CostModel();

  /// Scores \p DL (lower is better). Must be thread-safe: the search
  /// engine invokes it concurrently on distinct layouts.
  virtual CostSample evaluate(const layout::DataLayout &DL) const = 0;

  /// Scores \p DLs into \p Out (same length), Out[i] belonging to
  /// DLs[i] — the batched entry the search engine fills from its
  /// candidate queue. The base implementation loops evaluate(); models
  /// with a cheaper joint path (batched replay) override it. Same
  /// thread-safety contract as evaluate(), and results must be
  /// bit-identical to the per-item loop — batching is purely a
  /// throughput lever.
  virtual void evaluateBatch(std::span<const layout::DataLayout> DLs,
                             std::span<CostSample> Out) const;

  /// The batch width evaluateBatch exploits: callers get the best
  /// throughput handing it chunks of this many layouts. 1 means
  /// batching buys nothing (the base-class loop).
  virtual unsigned batchWidth() const { return 1; }

  virtual std::string name() const = 0;
};

/// The oracle: simulates the layout's full reference trace. Cost =
/// simulated misses. Exact and deterministic.
///
/// By default every evaluation re-walks the IR (a whole program
/// execution). prepareReplay() records the program's layout-independent
/// access stream once; evaluations of that program's layouts then
/// replay the recorded stream through a per-worker cache simulator — a
/// tight remap-and-probe loop instead of the walk — with bit-identical
/// statistics. Programs the recorder declines (indirect subscripts)
/// keep the direct path transparently.
/// On a multi-level machine every evaluation replays through a
/// CacheHierarchy and Cost is the weighted per-level miss sum; a
/// single-cache-level machine takes the exact pre-hierarchy CacheSim
/// path (bit-identical misses, Cost = Weight_l1 * Misses, which with
/// the default weight 1 is just the miss count).
class SimulationCostModel : public CostModel {
public:
  explicit SimulationCostModel(const CacheConfig &Cache)
      : Cache(Cache), Machine(MachineModel::singleLevel(Cache)) {}
  explicit SimulationCostModel(const MachineModel &Machine)
      : Cache(Machine.firstCache()), Machine(Machine) {}

  /// Records \p P's access stream for replay-based evaluation. \p P
  /// must outlive the model. No-op (direct tracing stays) when the
  /// stream cannot be recorded; usingReplay() tells which happened.
  void prepareReplay(const ir::Program &P);
  void prepareReplay(ir::Program &&) = delete;
  bool usingReplay() const { return Trace != nullptr; }

  /// Fewest candidates a batched replay pass must score to beat
  /// replaying them one by one; evaluateBatch replays shorter chunks
  /// sequentially. Measured as the cost of one K-lane zmm pass in
  /// sequential replays (base16k, 16 neighbors of the PAD layout, one
  /// pinned vCPU, best of 9, range over two runs):
  ///
  ///   K           1        2        3        4        8       16
  ///   jacobi512  1.9      2.2    2.4-2.5  2.8-2.9    4.2   3.6-4.8
  ///   shal512  2.0-2.2  2.3-2.7  2.2-3.2  2.6-2.7  4.2-4.4 4.5-4.9
  ///   dgefa256 1.2-2.0    2.4    2.8-2.9  2.8-3.0  3.0-3.1 2.7-4.0
  ///   expl128  1.3-2.1  2.2-2.4  2.6-2.7  2.5-2.8  3.8-5.1 6.9-7.2
  ///
  /// A lane that misses on most accesses makes nearly every probe
  /// scatter, so conflict-heavy candidates cost more: the seed batch
  /// (original, PAD and PADLITE layouts) costs 4.7-6.2 sequential
  /// replays at K = 3 on jacobi512, shal512 and expl128, and 2.8 at
  /// K = 2 on dgefa256. Three lanes therefore win only on good
  /// candidates and by at most a fifth; four win on every kernel.
  static constexpr unsigned kBatchBreakEven = 4;

  /// Requests up to \p K lanes of batched replay per trace pass (0 = the
  /// tuned default, 1 = sequential). The effective width — clamped to
  /// MultiTraceReplayer::zmmLanes, and 1 whenever replay is not
  /// prepared or no zmm kernel can take the geometry — is what
  /// batchWidth() reports. Stats stay bit-identical at every width.
  void setBatchWidth(unsigned K) { RequestedBatch = K; }
  unsigned batchWidth() const override;

  CostSample evaluate(const layout::DataLayout &DL) const override;
  void evaluateBatch(std::span<const layout::DataLayout> DLs,
                     std::span<CostSample> Out) const override;
  std::string name() const override { return "simulation"; }

private:
  /// Hierarchy replay for the multi-level machine path.
  CostSample evaluateMachine(const layout::DataLayout &DL) const;

  CacheConfig Cache; ///< First cache level; the single-level fast path.
  MachineModel Machine;
  unsigned RequestedBatch = 0;
  /// Shared read-only across the thread pool's workers; each worker
  /// keeps its own TraceReplayer, MultiTraceReplayer and CacheSim
  /// (thread-local).
  std::shared_ptr<const exec::RecordedTrace> Trace;
};

/// The pruner: the analytic associativity-lattice conflict predictor
/// (analysis::predictConflicts). Cost = predicted misses — the reuse
/// floor plus lattice-attributed conflict volume. Orders of magnitude
/// cheaper than simulation and good at ranking, which is what pruning
/// and pre-screening need; bench/model_accuracy cross-validates the
/// ranking against the simulator.
///
/// With an AnalysisManager attached, estimates route through it: the
/// layout-independent inputs (reference groups, iteration counts) are
/// computed once per search instead of once per candidate, and repeated
/// estimates of the same layout hit the manager's cache outright. The
/// manager is not thread-safe, so an attached model loses the base
/// interface's thread-safety — the search engine only ever calls it from
/// the single-threaded generation side, never from the pool.
/// On a multi-level machine the prediction runs per level (the
/// manager's machine-lattice kind when attached) and Cost is
/// MachinePrediction::WeightedMisses; a single-cache-level machine
/// takes the exact pre-hierarchy path.
class StaticCostModel : public CostModel {
public:
  explicit StaticCostModel(const CacheConfig &Cache,
                           pipeline::AnalysisManager *AM = nullptr)
      : Cache(Cache), Machine(MachineModel::singleLevel(Cache)),
        AM(AM) {}
  explicit StaticCostModel(const MachineModel &Machine,
                           pipeline::AnalysisManager *AM = nullptr)
      : Cache(Machine.firstCache()), Machine(Machine), AM(AM) {}

  CostSample evaluate(const layout::DataLayout &DL) const override;
  std::string name() const override { return "static-estimate"; }

private:
  CacheConfig Cache; ///< First cache level; the single-level fast path.
  MachineModel Machine;
  /// Optional memoization; used only when it manages DL's program.
  pipeline::AnalysisManager *AM;
};

} // namespace search
} // namespace padx

#endif // PADX_SEARCH_COSTMODEL_H
