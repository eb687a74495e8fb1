//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batched K-way candidate replay (DESIGN.md section 14).
///
/// The sequential TraceReplayer made a candidate cost one add and one
/// probe per access, but a search budget of hundreds of candidates
/// still walks the recorded block stream hundreds of times. Padding
/// candidates differ only in their affine remaps (base addresses and
/// per-dimension byte strides), so one pass over the stream can score K
/// layouts at once: the block decode — pattern lookup, start indices,
/// iteration control, write flags — is shared, while each candidate
/// keeps an independent lane of state (running addresses, per-ref byte
/// deltas, a packed direct-mapped tag column). All per-lane state is
/// struct-of-arrays with the lane index innermost, so one zmm register
/// holds a row of 8 lanes and the hot loop is one vector affine update
/// plus one gather-compare-scatter probe per access for every lane at
/// once.
///
/// Statistics are bit-identical per candidate to a sequential
/// TraceReplayer into a fresh CacheSim, enforced corpus-wide by
/// BatchReplayEquivalenceTest and at bench time by replay_speedup
/// --guard. The direct-mapped paper configuration is the only one the
/// batch pays off on, and only through the AVX-512 kernels: any lane
/// count up to zmmLanes() runs one masked 8- or 16-lane zmm pass. A
/// direct-mapped batch no zmm kernel can take (a host without AVX-512)
/// replays its lanes sequentially. Set-associative and
/// fully-associative geometries keep the shared decode but probe per
/// lane through CacheSim::probeLine; element sizes wider than a line
/// take the general per-lane access() route, exactly like the
/// sequential replayer.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_EXEC_MULTITRACEREPLAYER_H
#define PADX_EXEC_MULTITRACEREPLAYER_H

#include "cachesim/CacheSim.h"
#include "exec/RecordedTrace.h"
#include "layout/DataLayout.h"
#include "machine/CacheConfig.h"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

/// The wide-probe kernel below is compiled for AVX-512 via a function
/// target attribute (no global -march bump: the rest of the binary stays
/// baseline x86-64) and selected at run time with __builtin_cpu_supports,
/// so one binary serves both plain and AVX-512 hosts.
#if defined(__x86_64__) && defined(__GNUC__)
#define PADX_REPLAY_AVX512 1
#endif

namespace padx {
namespace exec {

/// Replays a RecordedTrace once for up to kMaxLanes candidate layouts
/// simultaneously. Not thread-safe; give each worker its own instance
/// (the trace is shared read-only). Reusable across calls — lane state
/// is kept and reset, so a search evaluating thousands of candidates in
/// chunks pays the allocation once.
class MultiTraceReplayer {
public:
  /// Hard lane ceiling: the widest zmm kernel, one row of 16 lanes. Its
  /// tag arena (16 words per set) still fits L1 next to the trace for a
  /// 16K geometry.
  static constexpr unsigned kMaxLanes = 16;

  /// \p Trace must outlive the replayer; \p Config is the geometry every
  /// lane simulates.
  MultiTraceReplayer(const RecordedTrace &Trace,
                     const CacheConfig &Config);

  /// Streams the block stream once, scoring Layouts[i] into Stats[i].
  /// Requires 1 <= Layouts.size() <= kMaxLanes and Stats.size() ==
  /// Layouts.size(); every layout must belong to the recorded program
  /// with all bases assigned. Returns the trace's record status
  /// (TraceLimitReached when MaxAccesses truncated the recording).
  RunStatus replay(std::span<const layout::DataLayout> Layouts,
                   std::span<sim::CacheStats> Stats);

  /// The most lanes replay() scores in one zmm pass of \p Trace on
  /// \p Config: 16 for a direct-mapped geometry on an AVX-512 host, 8
  /// when its lines are 8 bytes (the arena index needs log2(lanes)
  /// free line-offset bits), and 0 when no batch takes a zmm kernel —
  /// no AVX-512, an associative geometry, lines under 8 bytes, or
  /// elements wider than a line. Batches of up to this many lanes run
  /// one pass; a direct-mapped batch past it replays sequentially.
  static unsigned zmmLanes(const RecordedTrace &Trace,
                           const CacheConfig &Config);

  /// Test-only restriction of the engines replay() may pick, for the
  /// whole process. Zmm64 keeps 9-16 lanes off the one-zmm 32-bit
  /// kernel, so tests can sweep both kernels at every width; NoZmm
  /// makes zmmLanes() 0 everywhere — the dispatch of a host without
  /// AVX-512.
  enum class Dispatch { Auto, Zmm64, NoZmm };
  static void setDispatchForTesting(Dispatch D);

private:
  /// True when some element of \p T is wider than a line of \p Config,
  /// so its accesses may touch two lines.
  static bool mayStraddleLines(const RecordedTrace &T,
                               const CacheConfig &Config);

  /// Builds the lane-major remap state for the batch: bases, strides and
  /// per-ref deltas of lane L interleaved at stride \p K (the lane
  /// count, or a zmm kernel's row width with spare lanes left zero).
  void buildRemaps(std::span<const layout::DataLayout> Layouts,
                   unsigned K);

  /// The shared-decode streaming loop over rows of \p K lanes, for the
  /// per-lane probe paths (associative lanes, elements wider than a
  /// line). Probe(Lane, Addr, RefIndex) scores one access on one lane.
  template <typename ProbeFn>
  void streamBlocks(unsigned K, ProbeFn &&Probe);

#if PADX_REPLAY_AVX512
  /// Direct-mapped hot path with the whole lane row in zmm registers:
  /// NV 8-lane vectors per row (NV = 1 → 8 lanes, NV = 2 → 16), of
  /// which the first \p NumLanes are live and the rest masked out of
  /// every gather, scatter and tally. The packed tag columns live
  /// contiguously in TagArena so one gather / masked scatter off a
  /// single base pointer probes and updates every lane of an access at
  /// once; per-lane hit and write-back tallies stay in vector
  /// accumulators. Semantically identical to a sequential probe per
  /// lane — including the skipped store on read hits, which here
  /// becomes a skipped scatter when no lane missed. Only called when
  /// __builtin_cpu_supports("avx512f") at run time.
  template <unsigned NV>
  __attribute__((target("avx512f,avx512dq"))) void
  replayDirectZmm(unsigned NumLanes, uint64_t *Hits,
                  uint64_t *WriteBacks);

  /// 16-lane variant with the whole row in ONE zmm of 32-bit lanes:
  /// one 16-way gather per access instead of two 8-way ones, and every
  /// vector ALU op covers all lanes at once. Exact whenever every
  /// probed byte address fits int32 — mod-2^32 lane arithmetic then
  /// reproduces the 64-bit addresses bit-for-bit — which canReplayZmm32
  /// establishes up front from the trace's logical index bounds and the
  /// batch's bases and strides. Falls back to replayDirectZmm otherwise.
  void replayDirectZmm32(unsigned NumLanes, uint64_t *Hits,
                         uint64_t *WriteBacks)
      __attribute__((target("avx512f,avx512dq")));

  /// Gate for replayDirectZmm32: every pattern register-resident, the
  /// geometry's arena indexable in int32, access counts within int32,
  /// and — per live lane — the address interval of every ref inside
  /// int32.
  bool canReplayZmm32(unsigned NumLanes);

  /// Lazily computes, per (ref, dimension), the min/max logical index
  /// the trace ever instantiates (shared CSR indexing with
  /// RecordedTrace::Deltas); canReplayZmm32 turns these into per-lane
  /// byte-address bounds.
  void buildIdxBounds();
#endif

  const RecordedTrace &T;
  CacheConfig Config;

  /// One simulator per lane, constructed on first use and reset per
  /// batch: the per-lane probe paths simulate in them, the zmm path
  /// reads only the geometry of Sims[0].
  std::vector<sim::CacheSim> Sims;
  /// Direct-mapped batches no zmm kernel takes replay lane by lane
  /// through this (constructed on first use).
  std::optional<TraceReplayer> Sequential;

  /// Lane-major remaps (lane innermost, row width W):
  ///   BaseLanes[Slot * W + L]
  ///   StrideLanes[(SlotDimBegin[Slot] + Dim) * W + L]
  ///   DeltaLanes[Ref * W + L]
  ///   AddrLanes[RefInPattern * W + L]
  std::vector<int64_t> BaseLanes;
  std::vector<int64_t> StrideLanes;
  std::vector<int64_t> DeltaLanes;
  std::vector<int64_t> AddrLanes;
  /// Prefix sum of array ranks: row index of slot S's dimension 0 in
  /// StrideLanes.
  std::vector<uint32_t> SlotDimBegin;

  /// Contiguous packed line state for the zmm path, set-major and
  /// lane-minor — word (Set, L) at TagArena[Set * W + L] — zeroed
  /// (all-invalid) per batch; correlated candidate addresses then keep
  /// each gather's W words on one or two cache lines. Words use the
  /// zmm path's own packing, (LineAddr << 2) | valid << 1 | dirty,
  /// chosen to minimize vector ops per probe (rationale at ZmmEnv in
  /// the .cpp). Masked spare lanes never store, so their columns stay
  /// zero. Word contents are not part of the replay contract — only
  /// the settled CacheStats.
  std::vector<int64_t> TagArena;
  /// 32-bit arena of the one-zmm path (same set-major lane-minor
  /// shape); half the footprint keeps all 16 lanes of a 16K-set
  /// geometry inside L1.
  std::vector<int32_t> TagArena32;
  /// DeltaLanes truncated to int32 for the one-zmm path (truncation is
  /// exact mod 2^32; see replayDirectZmm32).
  std::vector<int32_t> DeltaLanes32;
  /// Per (ref, dimension) logical index bounds, CSR-indexed like
  /// RecordedTrace::Deltas; Lo > Hi means the ref never instantiates.
  std::vector<int64_t> RefIdxLo;
  std::vector<int64_t> RefIdxHi;
  bool IdxBoundsBuilt = false;

  /// Per ref, its IsWrite flag densely packed (shared by every lane —
  /// the write stream is layout-independent).
  std::vector<uint8_t> RefWrite;
  /// Per pattern, writes per iteration, for bulk stats settling.
  std::vector<uint32_t> PatternWrites;
  size_t MaxPatternRefs = 0;
};

} // namespace exec
} // namespace padx

#endif // PADX_EXEC_MULTITRACEREPLAYER_H
