//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "search/CostModel.h"

#include "analysis/LatticePredictor.h"
#include "cachesim/CacheHierarchy.h"
#include "cachesim/CacheSim.h"
#include "exec/Trace.h"
#include "exec/TraceRunner.h"
#include "pipeline/AnalysisManager.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace padx;
using namespace padx::search;

CostModel::~CostModel() = default;

void CostModel::evaluateBatch(std::span<const layout::DataLayout> DLs,
                              std::span<CostSample> Out) const {
  assert(DLs.size() == Out.size() && "one sample slot per layout");
  for (size_t I = 0; I != DLs.size(); ++I)
    Out[I] = evaluate(DLs[I]);
}

namespace {

/// Default lane cap for batched replay (SimulationCostModel with replay
/// prepared and no explicit width request): the widest zmm kernel, so
/// a chunk of any size from kBatchBreakEven up runs one pass. Search
/// rounds seldom fill it — a round holds at most NeighborsPerRound (8)
/// candidates — and chunks below kBatchBreakEven replay sequentially.
constexpr unsigned kDefaultBatchLanes = 16;

/// Per-thread replay state. The recorded trace is shared read-only; the
/// replayer (whose stride-delta caches are mutable), its batched
/// K-lane sibling, and the cache simulator are per worker. Keyed by the
/// trace's process-unique id (0 = none) so threads that outlive one
/// search re-initialize cleanly for the next. The state does not own
/// the trace: a one-thread search evaluates inline on the caller's
/// thread, whose state outlives the model, and owning the trace would
/// keep megabytes alive until that thread's next search. A replayer
/// whose trace has died is never used again — the next evaluation's id
/// differs and replaces it.
struct ReplayWorkerState {
  uint64_t TraceId = 0;
  std::optional<exec::TraceReplayer> Replayer;
  std::optional<sim::CacheSim> Sim;
  CacheConfig SimConfig;
  /// Keyed separately from the sequential pair above: the two paths
  /// can interleave on one worker without invalidating each other.
  uint64_t BatchTraceId = 0;
  std::optional<exec::MultiTraceReplayer> Batcher;
  CacheConfig BatchConfig;
  /// Multi-level path: its own trace/replayer pair plus a hierarchy,
  /// keyed by machine, reset between evaluations.
  uint64_t HierTraceId = 0;
  std::optional<exec::TraceReplayer> HierReplayer;
  std::optional<sim::CacheHierarchy> Hier;
  MachineModel HierMachine;
};

thread_local ReplayWorkerState Worker;

} // namespace

void SimulationCostModel::prepareReplay(const ir::Program &P) {
  Trace = exec::RecordedTrace::record(P);
}

unsigned SimulationCostModel::batchWidth() const {
  // The batcher probes one cache level, and beats sequential replay
  // only through its zmm kernels; hierarchy evaluations, associative
  // geometries and hosts without AVX-512 replay per candidate.
  if (!usingReplay() || !Machine.isSingleLevel())
    return 1;
  const unsigned Lanes = exec::MultiTraceReplayer::zmmLanes(*Trace, Cache);
  if (Lanes == 0)
    return 1;
  return std::min(RequestedBatch ? RequestedBatch : kDefaultBatchLanes,
                  Lanes);
}

void SimulationCostModel::evaluateBatch(
    std::span<const layout::DataLayout> DLs,
    std::span<CostSample> Out) const {
  assert(DLs.size() == Out.size() && "one sample slot per layout");
  const unsigned W = batchWidth();
  if (W < kBatchBreakEven || DLs.size() < kBatchBreakEven ||
      &DLs[0].program() != &Trace->program()) {
    CostModel::evaluateBatch(DLs, Out);
    return;
  }
  if (Worker.BatchTraceId != Trace->id() || Worker.BatchConfig != Cache) {
    Worker.BatchTraceId = Trace->id();
    Worker.Batcher.emplace(*Trace, Cache);
    Worker.BatchConfig = Cache;
  }
  // The same objective as evaluate(): Weight_l1 * Misses.
  const double Weight = Machine.Levels.front().Weight;
  sim::CacheStats Stats[exec::MultiTraceReplayer::kMaxLanes];
  for (size_t Begin = 0; Begin != DLs.size();) {
    const size_t N = std::min<size_t>(W, DLs.size() - Begin);
    if (N < kBatchBreakEven) {
      CostModel::evaluateBatch(DLs.subspan(Begin, N), Out.subspan(Begin, N));
      break; // Only the ragged tail is ever this short.
    }
    Worker.Batcher->replay(DLs.subspan(Begin, N),
                           std::span<sim::CacheStats>(Stats, N));
    for (size_t I = 0; I != N; ++I) {
      const double Misses = static_cast<double>(Stats[I].Misses);
      Out[Begin + I] = {Weight * Misses, Stats[I].Accesses, {Misses}};
    }
    Begin += N;
  }
}

CostSample SimulationCostModel::evaluateMachine(
    const layout::DataLayout &DL) const {
  auto SampleOf = [&](const sim::CacheHierarchy &H) {
    CostSample S;
    S.Accesses = H.stats(H.firstCacheLevel()).Accesses;
    S.LevelMisses.reserve(H.numLevels());
    for (unsigned I = 0; I != H.numLevels(); ++I) {
      double Misses = static_cast<double>(H.stats(I).Misses);
      S.LevelMisses.push_back(Misses);
      S.Cost += H.level(I).Weight * Misses;
    }
    return S;
  };
  if (Trace && &DL.program() == &Trace->program()) {
    if (Worker.HierTraceId != Trace->id()) {
      Worker.HierTraceId = Trace->id();
      Worker.HierReplayer.emplace(*Trace);
    }
    if (!Worker.Hier || Worker.HierMachine != Machine) {
      Worker.Hier.emplace(Machine);
      Worker.HierMachine = Machine;
    } else {
      Worker.Hier->reset();
    }
    Worker.HierReplayer->replay(DL, *Worker.Hier);
    return SampleOf(*Worker.Hier);
  }
  sim::CacheHierarchy H(Machine);
  exec::HierarchySink Sink(H);
  exec::TraceRunner Runner(DL.program(), DL);
  Runner.run(Sink);
  return SampleOf(H);
}

CostSample SimulationCostModel::evaluate(
    const layout::DataLayout &DL) const {
  if (!Machine.isSingleLevel())
    return evaluateMachine(DL);
  // Weight_l1 is 1.0 for every CacheConfig-constructed model, keeping
  // this path's cost exactly the miss count.
  const double W = Machine.Levels.front().Weight;
  if (Trace && &DL.program() == &Trace->program()) {
    if (Worker.TraceId != Trace->id()) {
      Worker.TraceId = Trace->id();
      Worker.Replayer.emplace(*Trace);
    }
    if (!Worker.Sim || Worker.SimConfig != Cache) {
      Worker.Sim.emplace(Cache);
      Worker.SimConfig = Cache;
    } else {
      Worker.Sim->reset();
    }
    Worker.Replayer->replay(DL, *Worker.Sim);
    double Misses = static_cast<double>(Worker.Sim->stats().Misses);
    return {W * Misses, Worker.Sim->stats().Accesses, {Misses}};
  }
  sim::CacheSim Sim(Cache);
  exec::CacheSimSink Sink(Sim);
  exec::TraceRunner Runner(DL.program(), DL);
  Runner.run(Sink);
  double Misses = static_cast<double>(Sim.stats().Misses);
  return {W * Misses, Sim.stats().Accesses, {Misses}};
}

CostSample StaticCostModel::evaluate(const layout::DataLayout &DL) const {
  if (!Machine.isSingleLevel()) {
    auto SampleOf = [&](const analysis::MachinePrediction &MP) {
      CostSample S;
      S.Cost = MP.WeightedMisses;
      S.LevelMisses.reserve(MP.Levels.size());
      for (const analysis::MachineLevelPrediction &LP : MP.Levels) {
        S.LevelMisses.push_back(LP.Prediction.PredictedMisses);
        if (S.Accesses == 0 && !LP.IsTlb)
          S.Accesses =
              static_cast<uint64_t>(LP.Prediction.PredictedAccesses);
      }
      return S;
    };
    if (AM && &DL.program() == &AM->program())
      return SampleOf(AM->machineLatticePrediction(DL, Machine));
    return SampleOf(analysis::predictConflicts(DL, Machine));
  }
  const double W = Machine.Levels.front().Weight;
  if (AM && &DL.program() == &AM->program()) {
    const analysis::LatticePrediction &E =
        AM->latticePrediction(DL, Cache);
    return {W * E.PredictedMisses,
            static_cast<uint64_t>(E.PredictedAccesses),
            {E.PredictedMisses}};
  }
  analysis::LatticePrediction E = analysis::predictConflicts(DL, Cache);
  return {W * E.PredictedMisses,
          static_cast<uint64_t>(E.PredictedAccesses),
          {E.PredictedMisses}};
}
