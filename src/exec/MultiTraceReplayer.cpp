//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "exec/MultiTraceReplayer.h"

#include "support/Compiler.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#if PADX_REPLAY_AVX512
#include <immintrin.h>
#endif

using namespace padx;
using namespace padx::exec;

namespace {

std::atomic<MultiTraceReplayer::Dispatch> DispatchOverride{
    MultiTraceReplayer::Dispatch::Auto};

/// Run-time half of the zmm-path gate (the compile-time half is the
/// PADX_REPLAY_AVX512 macro). The CPU is checked once per process.
bool hostHasAvx512() {
#if PADX_REPLAY_AVX512
  static const bool Has = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512dq");
  return Has && DispatchOverride.load(std::memory_order_relaxed) !=
                    MultiTraceReplayer::Dispatch::NoZmm;
#else
  return false;
#endif
}

} // namespace

bool MultiTraceReplayer::mayStraddleLines(const RecordedTrace &T,
                                          const CacheConfig &Config) {
  // Bases are element-aligned, so an element access can only straddle
  // a line when wider than one.
  return std::any_of(T.Refs.begin(), T.Refs.end(),
                     [&](const RecordedTrace::Ref &R) {
                       return R.ElemSize > Config.LineBytes;
                     });
}

void MultiTraceReplayer::setDispatchForTesting(Dispatch D) {
  DispatchOverride.store(D, std::memory_order_relaxed);
}

unsigned MultiTraceReplayer::zmmLanes(const RecordedTrace &Trace,
                                      const CacheConfig &Config) {
  if (!hostHasAvx512() || Config.Associativity != 1 ||
      mayStraddleLines(Trace, Config))
    return 0;
  // The zmm probe folds the arena-index shift into one logical shift of
  // the byte address, which needs log2(line bytes) >= log2(row width).
  if (Config.LineBytes >= 16)
    return 16;
  return Config.LineBytes >= 8 ? 8 : 0;
}

MultiTraceReplayer::MultiTraceReplayer(const RecordedTrace &Trace,
                                       const CacheConfig &Config)
    : T(Trace), Config(Config) {
  for (const RecordedTrace::Pattern &P : T.Patterns)
    MaxPatternRefs =
        std::max<size_t>(MaxPatternRefs, P.RefEnd - P.RefBegin);
  RefWrite.resize(T.Refs.size());
  for (size_t R = 0; R != T.Refs.size(); ++R)
    RefWrite[R] = T.Refs[R].IsWrite;
  PatternWrites.assign(T.Patterns.size(), 0);
  for (size_t P = 0; P != T.Patterns.size(); ++P)
    for (uint32_t R = T.Patterns[P].RefBegin;
         R != T.Patterns[P].RefEnd; ++R)
      PatternWrites[P] += T.Refs[R].IsWrite;
  const auto &Arrays = T.program().arrays();
  SlotDimBegin.assign(Arrays.size() + 1, 0);
  for (size_t Id = 0; Id != Arrays.size(); ++Id)
    SlotDimBegin[Id + 1] =
        SlotDimBegin[Id] +
        static_cast<uint32_t>(Arrays[Id].DimSizes.size());
}

void MultiTraceReplayer::buildRemaps(
    std::span<const layout::DataLayout> Layouts, unsigned K) {
  const size_t NumArrays = T.program().arrays().size();
  BaseLanes.assign(NumArrays * K, 0);
  StrideLanes.assign(size_t(SlotDimBegin.back()) * K, 0);
  DeltaLanes.assign(T.Refs.size() * K, 0);
  AddrLanes.assign(MaxPatternRefs * K, 0);
  for (unsigned L = 0; L != Layouts.size(); ++L) {
    const layout::DataLayout &DL = Layouts[L];
    assert(&DL.program() == &T.program() &&
           "layout must belong to the recorded program");
    assert(DL.allBasesAssigned() && "layout must be complete");
    for (unsigned Id = 0; Id != NumArrays; ++Id) {
      const layout::ArrayLayout &AL = DL.layout(Id);
      BaseLanes[size_t(Id) * K + L] = AL.BaseAddr;
      // Padded byte strides, exactly as TraceReplayer::updateRemaps:
      // stride_0 = elemsize, stride_d = stride_{d-1} * padded dim_{d-1}.
      int64_t Stride = DL.program().array(Id).ElemSize;
      for (size_t D = 0; D != AL.Dims.size(); ++D) {
        StrideLanes[(size_t(SlotDimBegin[Id]) + D) * K + L] = Stride;
        Stride *= AL.Dims[D];
      }
    }
    for (size_t R = 0; R != T.Refs.size(); ++R) {
      const RecordedTrace::Ref &Rf = T.Refs[R];
      int64_t Delta = 0;
      for (uint32_t D = 0; D != Rf.Rank; ++D)
        Delta +=
            T.Deltas[Rf.DeltaIndex + D] *
            StrideLanes[(size_t(SlotDimBegin[Rf.ArrayId]) + D) * K + L];
      DeltaLanes[R * K + L] = Delta;
    }
  }
}

template <typename ProbeFn>
void MultiTraceReplayer::streamBlocks(unsigned K, ProbeFn &&Probe) {
  const int64_t *PADX_RESTRICT Starts = T.Starts.data();
  const int64_t *PADX_RESTRICT Bases = BaseLanes.data();
  const int64_t *PADX_RESTRICT Strides = StrideLanes.data();
  const int64_t *PADX_RESTRICT Deltas = DeltaLanes.data();
  int64_t *PADX_RESTRICT Addr = AddrLanes.data();
  const uint32_t *SlotDim = SlotDimBegin.data();
  for (const RecordedTrace::Block &B : T.Blocks) {
    const RecordedTrace::Pattern &Pat = T.Patterns[B.PatternIndex];
    const uint32_t NumRefs = Pat.RefEnd - Pat.RefBegin;
    // Per-lane start addresses of this block: lane L's base plus the
    // shared logical start indices times lane L's byte strides.
    const int64_t *St = Starts + B.StartIndex;
    for (uint32_t R = 0; R != NumRefs; ++R) {
      const RecordedTrace::Ref &Rf = T.Refs[Pat.RefBegin + R];
      const int64_t *BaseRow = Bases + size_t(Rf.ArrayId) * K;
      const int64_t *StrideRow =
          Strides + size_t(SlotDim[Rf.ArrayId]) * K;
      for (unsigned L = 0; L != K; ++L) {
        int64_t A = BaseRow[L];
        for (uint32_t D = 0; D != Rf.Rank; ++D)
          A += St[D] * StrideRow[D * K + L];
        Addr[size_t(R) * K + L] = A;
      }
      St += Rf.Rank;
    }
    // The stream itself: decode once, probe every lane. Lane L's next
    // address depends only on lane L's previous one, so the K update
    // chains run in parallel in the pipeline.
    const int64_t *Delta = Deltas + size_t(Pat.RefBegin) * K;
    for (uint64_t It = 0; It != B.Count; ++It)
      for (uint32_t R = 0; R != NumRefs; ++R) {
        int64_t *PADX_RESTRICT ARow = Addr + size_t(R) * K;
        const int64_t *PADX_RESTRICT DRow = Delta + size_t(R) * K;
        const uint32_t RefIndex = Pat.RefBegin + R;
        for (unsigned L = 0; L != K; ++L) {
          Probe(L, ARow[L], RefIndex);
          ARow[L] += DRow[L];
        }
      }
  }
}

#if PADX_REPLAY_AVX512

// GCC 12's unmasked AVX-512 intrinsics route through
// _mm512_undefined_epi32() as the passthrough operand, which trips
// -Wmaybe-uninitialized in the vendor headers; the values are fully
// overwritten, so the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

/// Shared per-batch vector environment of the zmm probe loops.
///
/// The zmm path packs its arena words as
///   (LineAddr << 2) | (valid << 1) | dirty
/// — the full line address where CacheSim's packed word stores only the
/// tag, and with valid/dirty bit roles swapped. Both changes shave
/// vector ops off the probe: a slot at set S only ever holds a line
/// address whose set bits equal S, so comparing full line addresses
/// decides a hit exactly like comparing tags (the set comparison is
/// vacuously true) while the Key needs no tag shift — one arithmetic
/// shift of the byte address plus a vpternlogq that clears the low two
/// bits and sets valid; and with dirty in bit 0 its extraction for the
/// write-back tally is a single and instead of shift-and-mask. The
/// arena is zeroed per batch, never read by anything else, and the
/// final word contents are outside the replay contract, so the packing
/// difference is unobservable — only the settled CacheStats are, and
/// those are bit-identical (enforced by BatchReplayEquivalenceTest and
/// replay_speedup --guard).
///
/// A batch narrower than the row leaves spare lanes; Active masks them
/// out of every gather, compare, scatter and tally, so their arena
/// columns stay zero and their (zero) remap rows never matter.
struct ZmmEnv {
  __m512i SetMaskShiftedV; ///< directSetMask() << lineShiftLog2().
  __m512i LaneId[2];       ///< {0..7}, {8..15}.
  __mmask8 Active[2];      ///< Live lanes of each 8-lane vector.
  __m128i IdxShiftC;       ///< lineShiftLog2() - Log2K.
  __m128i KeyShiftC;       ///< lineShiftLog2() - 2.
  __m512i NotThree;        ///< ~3, clears the flag bits of a Key.
  __m512i NotOne;          ///< ~1, ignores dirty in the hit compare.
  __m512i One;
  __m512i Two;             ///< The valid bit.
};

/// Per-lane accumulators, two vector groups (K <= 16). Write-backs are
/// not tallied per access: a write-back happens exactly when a created
/// dirty word is later evicted, so the loop only counts dirty
/// creations (write-ref stores — their store mask is precisely the
/// lanes whose word becomes dirty without having been) and the caller
/// subtracts the dirty words still sitting in the arena afterwards.
/// Read refs touch no write-back state at all.
struct ZmmAcc {
  __m512i Hit[2];
  __m512i DirtyMade[2];
};

/// One pattern of at most kZmmMaxRefs refs, flattened to plain rows by
/// the caller (which owns the RecordedTrace access): everything the
/// register-resident block loop needs without touching trace internals.
constexpr unsigned kZmmMaxRefs = 6;
struct ZmmPattern {
  const int64_t *BaseRow[kZmmMaxRefs];
  const int64_t *StrideRow[kZmmMaxRefs];
  const int64_t *DeltaRow[kZmmMaxRefs];
  uint32_t Rank[kZmmMaxRefs];
  uint32_t StartOff[kZmmMaxRefs]; ///< Prefix of ranks within the block's
                                  ///< start-index record.
  int64_t WBit[kZmmMaxRefs];
  uint32_t NumRefs = 0;
};

/// One-zmm (16 x int32) analogues of ZmmEnv / ZmmAcc / ZmmPattern for
/// the K = 16 narrow path. Same packing and same probe algebra, just
/// on 32-bit lanes; the caller has proved every probed address fits
/// int32, so mod-2^32 lane arithmetic is exact (deltas and start
/// addresses are truncating casts — any wrap cancels because the true
/// values are representable).
struct Zmm32Env {
  __m512i SetMaskShiftedV;
  __m512i LaneId; ///< {0..15}.
  __mmask16 Active;
  __m128i IdxShiftC;
  __m128i KeyShiftC;
  __m512i NotThree;
  __m512i NotOne;
  __m512i One;
  __m512i Two;
};

struct Zmm32Acc {
  __m512i Hit;
  __m512i DirtyMade;
};

struct Zmm32Pattern {
  const int64_t *BaseRow[kZmmMaxRefs];
  const int64_t *StrideRow[kZmmMaxRefs];
  const int32_t *DeltaRow32[kZmmMaxRefs];
  uint32_t Rank[kZmmMaxRefs];
  uint32_t StartOff[kZmmMaxRefs];
  int64_t WBit[kZmmMaxRefs];
  uint32_t NumRefs = 0;
};

/// runBlockZmm on one zmm of 16 int32 lanes. Start addresses are
/// computed in 64-bit exactly as the wide path does (vpmullq), then
/// narrowed with a truncating vpmovqd.
template <unsigned NR>
__attribute__((target("avx512f,avx512dq"))) void
runBlockZmm32(const Zmm32Pattern &Pat, const int64_t *St,
              uint64_t Count, int32_t *PADX_RESTRICT Arena,
              const Zmm32Env &Env, Zmm32Acc &Acc) {
  constexpr unsigned K = 16;
  __m512i A[NR], D[NR], DirtyNew[NR];
  for (unsigned R = 0; R != NR; ++R) {
    __m512i Lo = _mm512_loadu_si512(Pat.BaseRow[R]);
    __m512i Hi = _mm512_loadu_si512(Pat.BaseRow[R] + 8);
    for (uint32_t Dim = 0; Dim != Pat.Rank[R]; ++Dim) {
      const __m512i Sv = _mm512_set1_epi64(St[Pat.StartOff[R] + Dim]);
      Lo = _mm512_add_epi64(
          Lo, _mm512_mullo_epi64(
                  Sv, _mm512_loadu_si512(Pat.StrideRow[R] + Dim * K)));
      Hi = _mm512_add_epi64(
          Hi, _mm512_mullo_epi64(
                  Sv, _mm512_loadu_si512(Pat.StrideRow[R] + Dim * K +
                                         8)));
    }
    A[R] = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtepi64_epi32(Lo)),
        _mm512_cvtepi64_epi32(Hi), 1);
    D[R] = _mm512_loadu_si512(Pat.DeltaRow32[R]);
    DirtyNew[R] = _mm512_set1_epi32(static_cast<int>(Pat.WBit[R]));
  }
  for (uint64_t It = 0; It != Count; ++It)
    for (unsigned R = 0; R != NR; ++R) {
      const __m512i Idx = _mm512_or_si512(
          _mm512_srl_epi32(_mm512_and_si512(A[R], Env.SetMaskShiftedV),
                           Env.IdxShiftC),
          Env.LaneId);
      const __m512i P = _mm512_mask_i32gather_epi32(
          _mm512_setzero_si512(), Env.Active, Idx, Arena, 4);
      const __m512i Key = _mm512_ternarylogic_epi64(
          _mm512_sra_epi32(A[R], Env.KeyShiftC), Env.NotThree, Env.Two,
          0xEA);
      const __mmask16 Hit = _mm512_mask_testn_epi32_mask(
          Env.Active, _mm512_xor_si512(P, Key), Env.NotOne);
      const __mmask16 Miss = Hit ^ Env.Active;
      Acc.Hit =
          _mm512_mask_add_epi32(Acc.Hit, Hit, Acc.Hit, Env.One);
      if (Pat.WBit[R]) {
        const __m512i New = _mm512_or_si512(
            _mm512_mask_blend_epi32(Hit, Key, P), DirtyNew[R]);
        const __mmask16 StoreM = static_cast<__mmask16>(
            Miss | _mm512_mask_testn_epi32_mask(Env.Active, P, Env.One));
        Acc.DirtyMade = _mm512_mask_add_epi32(Acc.DirtyMade, StoreM,
                                              Acc.DirtyMade, Env.One);
        if (StoreM)
          _mm512_mask_i32scatter_epi32(Arena, StoreM, Idx, New, 4);
      } else if (Miss) {
        _mm512_mask_i32scatter_epi32(Arena, Miss, Idx, Key, 4);
      }
      A[R] = _mm512_add_epi32(A[R], D[R]);
    }
}

/// The heart of the batched direct-mapped path: one block, NR refs and
/// NV 8-lane vectors fixed at compile time, so the running addresses
/// and deltas live in zmm registers across the whole iteration loop —
/// the loop-carried add is one cycle instead of a store-to-load
/// round-trip through AddrLanes.
template <unsigned NV, unsigned NR>
__attribute__((target("avx512f,avx512dq"))) void
runBlockZmm(const ZmmPattern &Pat, const int64_t *St, uint64_t Count,
            int64_t *PADX_RESTRICT Arena, const ZmmEnv &Env,
            ZmmAcc &Acc) {
  constexpr unsigned K = NV * 8;
  __m512i A[NR][NV], D[NR][NV], DirtyNew[NR];
  for (unsigned R = 0; R != NR; ++R) {
    for (unsigned V = 0; V != NV; ++V) {
      __m512i Av = _mm512_loadu_si512(Pat.BaseRow[R] + V * 8);
      for (uint32_t Dim = 0; Dim != Pat.Rank[R]; ++Dim)
        Av = _mm512_add_epi64(
            Av, _mm512_mullo_epi64(
                    _mm512_set1_epi64(St[Pat.StartOff[R] + Dim]),
                    _mm512_loadu_si512(Pat.StrideRow[R] + Dim * K +
                                       V * 8)));
      A[R][V] = Av;
      D[R][V] = _mm512_loadu_si512(Pat.DeltaRow[R] + V * 8);
    }
    DirtyNew[R] = _mm512_set1_epi64(Pat.WBit[R]);
  }
  for (uint64_t It = 0; It != Count; ++It)
    for (unsigned R = 0; R != NR; ++R)
      for (unsigned V = 0; V != NV; ++V) {
        // Arena index straight off the byte address: the premasked,
        // preshifted set mask extracts bits [LineShift, LineShift +
        // SetBits), the logical shift lands them at bit Log2K, and the
        // lane id fills the (zero) low bits.
        const __m512i Idx = _mm512_or_si512(
            _mm512_srl_epi64(
                _mm512_and_si512(A[R][V], Env.SetMaskShiftedV),
                Env.IdxShiftC),
            Env.LaneId[V]);
        const __m512i P = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), Env.Active[V], Idx, Arena, 8);
        // Key = (LineAddr << 2) | valid: shift the byte address right
        // so the line address sits at bit 2, then one vpternlogq
        // ((a & ~3) | 2) clears the shifted-in garbage and sets valid.
        const __m512i Key = _mm512_ternarylogic_epi64(
            _mm512_sra_epi64(A[R][V], Env.KeyShiftC), Env.NotThree,
            Env.Two, 0xEA);
        // Hit iff P and Key agree everywhere but the dirty bit; spare
        // lanes neither hit nor miss.
        const __mmask8 Hit = _mm512_mask_testn_epi64_mask(
            Env.Active[V], _mm512_xor_si512(P, Key), Env.NotOne);
        const __mmask8 Miss = Hit ^ Env.Active[V];
        Acc.Hit[V] = _mm512_mask_add_epi64(Acc.Hit[V], Hit, Acc.Hit[V],
                                           Env.One);
        // The update, split by the ref's (loop-invariant, perfectly
        // predicted) write flag. Reads only ever store Key into miss
        // lanes, so they skip the hit-lane blend outright; writes
        // store miss lanes plus hit lanes whose dirty bit is not set
        // yet — a write hit on an already-dirty line would rewrite
        // the identical word, and every skipped scatter is one fewer
        // store the next gather has to disambiguate against. The
        // write store mask is exactly the lanes whose word turns
        // dirty, which is all the write-back accounting the loop
        // needs (see ZmmAcc).
        if (Pat.WBit[R]) {
          const __m512i New = _mm512_or_si512(
              _mm512_mask_blend_epi64(Hit, Key, P), DirtyNew[R]);
          const __mmask8 StoreM = static_cast<__mmask8>(
              Miss | _mm512_mask_testn_epi64_mask(Env.Active[V], P,
                                                  Env.One));
          Acc.DirtyMade[V] = _mm512_mask_add_epi64(
              Acc.DirtyMade[V], StoreM, Acc.DirtyMade[V], Env.One);
          if (StoreM)
            _mm512_mask_i64scatter_epi64(Arena, StoreM, Idx, New, 8);
        } else if (Miss) {
          _mm512_mask_i64scatter_epi64(Arena, Miss, Idx, Key, 8);
        }
        A[R][V] = _mm512_add_epi64(A[R][V], D[R][V]);
      }
}

} // namespace

template <unsigned NV>
__attribute__((target("avx512f,avx512dq"))) void
MultiTraceReplayer::replayDirectZmm(unsigned NumLanes, uint64_t *HitsOut,
                                    uint64_t *WriteBacksOut) {
  constexpr unsigned K = NV * 8;
  const int64_t *PADX_RESTRICT Starts = T.Starts.data();
  const int64_t *PADX_RESTRICT Bases = BaseLanes.data();
  const int64_t *PADX_RESTRICT Strides = StrideLanes.data();
  const int64_t *PADX_RESTRICT Deltas = DeltaLanes.data();
  int64_t *PADX_RESTRICT Addr = AddrLanes.data();
  int64_t *PADX_RESTRICT Arena = TagArena.data();
  const uint32_t *SlotDim = SlotDimBegin.data();
  const uint8_t *PADX_RESTRICT Write = RefWrite.data();

  const int64_t SetMask = Sims[0].directSetMask();
  const unsigned LineShift = Sims[0].lineShiftLog2();
  constexpr unsigned Log2K = NV == 1 ? 3 : 4;
  // Arena indexing is set-major, lane-minor: word (Set, L) lives at
  // Set * K + L. Search candidates are correlated layouts — their lane
  // addresses for one access usually land in the same or nearby sets —
  // so the K words a gather needs sit on one or two cache lines instead
  // of K lines spread over K disjoint per-lane arrays. The caller
  // guarantees LineShift >= max(Log2K, 2), so both preadjusted shift
  // counts below are non-negative; shift counts are uniform across
  // lanes and the xmm-count shift forms take them from a register (the
  // immediate forms need constants).
  ZmmEnv Env;
  Env.SetMaskShiftedV = _mm512_set1_epi64(SetMask << LineShift);
  Env.IdxShiftC =
      _mm_cvtsi32_si128(static_cast<int>(LineShift - Log2K));
  Env.KeyShiftC = _mm_cvtsi32_si128(static_cast<int>(LineShift - 2));
  Env.NotThree = _mm512_set1_epi64(~int64_t(3));
  Env.NotOne = _mm512_set1_epi64(~int64_t(1));
  Env.One = _mm512_set1_epi64(1);
  Env.Two = _mm512_set1_epi64(2);
  ZmmAcc Acc;
  for (unsigned V = 0; V != NV; ++V) {
    alignas(64) int64_t Id[8];
    for (unsigned L = 0; L != 8; ++L)
      Id[L] = static_cast<int64_t>(V * 8 + L);
    Env.LaneId[V] = _mm512_load_si512(Id);
    const unsigned Live = V == 0 ? std::min(NumLanes, 8u) : NumLanes - 8;
    Env.Active[V] = static_cast<__mmask8>((1u << Live) - 1);
    Acc.Hit[V] = _mm512_setzero_si512();
    Acc.DirtyMade[V] = _mm512_setzero_si512();
  }

  // Flatten each pattern's refs to plain lane rows once; the block loop
  // then dispatches on the ref count so patterns of up to kZmmMaxRefs
  // refs (every corpus program) run the register-resident loop.
  std::vector<ZmmPattern> Pats(T.Patterns.size());
  for (size_t PI = 0; PI != T.Patterns.size(); ++PI) {
    const RecordedTrace::Pattern &Pat = T.Patterns[PI];
    ZmmPattern &Z = Pats[PI];
    Z.NumRefs = Pat.RefEnd - Pat.RefBegin;
    if (Z.NumRefs > kZmmMaxRefs)
      continue;
    uint32_t Off = 0;
    for (uint32_t R = 0; R != Z.NumRefs; ++R) {
      const RecordedTrace::Ref &Rf = T.Refs[Pat.RefBegin + R];
      Z.BaseRow[R] = Bases + size_t(Rf.ArrayId) * K;
      Z.StrideRow[R] = Strides + size_t(SlotDim[Rf.ArrayId]) * K;
      Z.DeltaRow[R] = Deltas + size_t(Pat.RefBegin + R) * K;
      Z.Rank[R] = Rf.Rank;
      Z.StartOff[R] = Off;
      Z.WBit[R] = Write[Pat.RefBegin + R];
      Off += Rf.Rank;
    }
  }

  // Same block walk as streamBlocks (kept in sync by the equivalence
  // suite); duplicated here because the vector body must live inside
  // target("avx512f,avx512dq") functions — a per-access callback would
  // not inline across the target boundary.
  for (const RecordedTrace::Block &B : T.Blocks) {
    const ZmmPattern &Z = Pats[B.PatternIndex];
    const int64_t *St = Starts + B.StartIndex;
    switch (Z.NumRefs) {
    case 1:
      runBlockZmm<NV, 1>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 2:
      runBlockZmm<NV, 2>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 3:
      runBlockZmm<NV, 3>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 4:
      runBlockZmm<NV, 4>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 5:
      runBlockZmm<NV, 5>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 6:
      runBlockZmm<NV, 6>(Z, St, B.Count, Arena, Env, Acc);
      break;
    default: {
      // Wide patterns (> kZmmMaxRefs refs) would not fit the register
      // file; keep their addresses in AddrLanes instead. Start
      // addresses use the same vpmullq setup as the register path.
      const RecordedTrace::Pattern &Pat = T.Patterns[B.PatternIndex];
      const uint32_t NumRefs = Z.NumRefs;
      const int64_t *StR = St;
      for (uint32_t R = 0; R != NumRefs; ++R) {
        const RecordedTrace::Ref &Rf = T.Refs[Pat.RefBegin + R];
        const int64_t *BaseRow = Bases + size_t(Rf.ArrayId) * K;
        const int64_t *StrideRow =
            Strides + size_t(SlotDim[Rf.ArrayId]) * K;
        for (unsigned V = 0; V != NV; ++V) {
          __m512i Av = _mm512_loadu_si512(BaseRow + V * 8);
          for (uint32_t D = 0; D != Rf.Rank; ++D)
            Av = _mm512_add_epi64(
                Av,
                _mm512_mullo_epi64(
                    _mm512_set1_epi64(StR[D]),
                    _mm512_loadu_si512(StrideRow + D * K + V * 8)));
          _mm512_storeu_si512(Addr + size_t(R) * K + V * 8, Av);
        }
        StR += Rf.Rank;
      }
      const int64_t *Delta = Deltas + size_t(Pat.RefBegin) * K;
      for (uint64_t It = 0; It != B.Count; ++It)
        for (uint32_t R = 0; R != NumRefs; ++R) {
          int64_t *PADX_RESTRICT ARow = Addr + size_t(R) * K;
          const int64_t *PADX_RESTRICT DRow = Delta + size_t(R) * K;
          const int64_t WBit = Write[Pat.RefBegin + R];
          const __m512i DirtyNew = _mm512_set1_epi64(WBit);
          for (unsigned V = 0; V != NV; ++V) {
            const __m512i Av = _mm512_loadu_si512(ARow + V * 8);
            const __m512i Idx = _mm512_or_si512(
                _mm512_srl_epi64(
                    _mm512_and_si512(Av, Env.SetMaskShiftedV),
                    Env.IdxShiftC),
                Env.LaneId[V]);
            const __m512i P = _mm512_mask_i64gather_epi64(
                _mm512_setzero_si512(), Env.Active[V], Idx, Arena, 8);
            const __m512i Key = _mm512_ternarylogic_epi64(
                _mm512_sra_epi64(Av, Env.KeyShiftC), Env.NotThree,
                Env.Two, 0xEA);
            const __mmask8 Hit = _mm512_mask_testn_epi64_mask(
                Env.Active[V], _mm512_xor_si512(P, Key), Env.NotOne);
            const __mmask8 Miss = Hit ^ Env.Active[V];
            Acc.Hit[V] = _mm512_mask_add_epi64(Acc.Hit[V], Hit,
                                               Acc.Hit[V], Env.One);
            // Hit lanes keep their word (dirty set on writes), miss
            // lanes take the new key — CacheSim's direct-mapped probe
            // per lane under the zmm packing. Reads only ever store Key
            // into miss lanes; write hits on already-dirty lines are
            // identical rewrites and skip the scatter; the write store
            // mask doubles as the dirty-creation tally (see ZmmAcc).
            if (WBit) {
              const __m512i New = _mm512_or_si512(
                  _mm512_mask_blend_epi64(Hit, Key, P), DirtyNew);
              const __mmask8 StoreM = static_cast<__mmask8>(
                  Miss | _mm512_mask_testn_epi64_mask(Env.Active[V], P,
                                                      Env.One));
              Acc.DirtyMade[V] = _mm512_mask_add_epi64(
                  Acc.DirtyMade[V], StoreM, Acc.DirtyMade[V], Env.One);
              if (StoreM)
                _mm512_mask_i64scatter_epi64(Arena, StoreM, Idx, New,
                                             8);
            } else if (Miss) {
              _mm512_mask_i64scatter_epi64(Arena, Miss, Idx, Key, 8);
            }
            _mm512_storeu_si512(
                ARow + V * 8,
                _mm512_add_epi64(Av,
                                 _mm512_loadu_si512(DRow + V * 8)));
          }
        }
    } break;
    }
  }

  // Settle write-backs: creations minus the dirty words that survived
  // to the end of the stream (one vector and-and-add per set — a few
  // thousand ops per batch of K full candidate replays).
  const int64_t NumSets = SetMask + 1;
  for (unsigned V = 0; V != NV; ++V) {
    __m512i Rem = _mm512_setzero_si512();
    for (int64_t S = 0; S != NumSets; ++S)
      Rem = _mm512_add_epi64(
          Rem, _mm512_and_si512(
                   _mm512_loadu_si512(Arena + size_t(S) * K + V * 8),
                   Env.One));
    const __m512i Wb = _mm512_sub_epi64(Acc.DirtyMade[V], Rem);
    alignas(64) int64_t H[8], W[8];
    _mm512_store_si512(H, Acc.Hit[V]);
    _mm512_store_si512(W, Wb);
    for (unsigned L = 0; L != 8; ++L) {
      HitsOut[V * 8 + L] = static_cast<uint64_t>(H[L]);
      WriteBacksOut[V * 8 + L] = static_cast<uint64_t>(W[L]);
    }
  }
}

void MultiTraceReplayer::buildIdxBounds() {
  if (IdxBoundsBuilt)
    return;
  IdxBoundsBuilt = true;
  RefIdxLo.assign(T.Deltas.size(), INT64_MAX);
  RefIdxHi.assign(T.Deltas.size(), INT64_MIN);
  for (const RecordedTrace::Block &B : T.Blocks) {
    const RecordedTrace::Pattern &Pat = T.Patterns[B.PatternIndex];
    const int64_t *St = T.Starts.data() + B.StartIndex;
    for (uint32_t R = Pat.RefBegin; R != Pat.RefEnd; ++R) {
      const RecordedTrace::Ref &Rf = T.Refs[R];
      for (uint32_t Dm = 0; Dm != Rf.Rank; ++Dm) {
        const int64_t S0 = St[Dm];
        const int64_t S1 =
            S0 + static_cast<int64_t>(B.Count - 1) *
                     T.Deltas[Rf.DeltaIndex + Dm];
        int64_t &Lo = RefIdxLo[Rf.DeltaIndex + Dm];
        int64_t &Hi = RefIdxHi[Rf.DeltaIndex + Dm];
        Lo = std::min(Lo, std::min(S0, S1));
        Hi = std::max(Hi, std::max(S0, S1));
      }
      St += Rf.Rank;
    }
  }
}

bool MultiTraceReplayer::canReplayZmm32(unsigned NumLanes) {
  constexpr unsigned K = 16; // Row width.
  // Register residency for every pattern (the narrow path has no
  // AddrLanes fallback), per-lane hit counters that cannot saturate,
  // and an arena index range inside int32.
  if (MaxPatternRefs > kZmmMaxRefs)
    return false;
  if (T.numAccesses() > static_cast<uint64_t>(INT32_MAX))
    return false;
  const int64_t SetMaskShifted = Sims[0].directSetMask()
                                 << Sims[0].lineShiftLog2();
  if (SetMaskShifted > INT32_MAX)
    return false;
  buildIdxBounds();
  // Every ref's byte-address interval, per lane: base plus each
  // dimension's index bounds scaled by the lane's (non-negative)
  // padded byte stride.
  for (size_t R = 0; R != T.Refs.size(); ++R) {
    const RecordedTrace::Ref &Rf = T.Refs[R];
    for (unsigned L = 0; L != NumLanes; ++L) {
      int64_t Lo = BaseLanes[size_t(Rf.ArrayId) * K + L];
      int64_t Hi = Lo;
      for (uint32_t Dm = 0; Dm != Rf.Rank; ++Dm) {
        const int64_t ILo = RefIdxLo[Rf.DeltaIndex + Dm];
        const int64_t IHi = RefIdxHi[Rf.DeltaIndex + Dm];
        if (ILo > IHi)
          continue; // Ref never instantiated by any block.
        const int64_t Stride =
            StrideLanes[(size_t(SlotDimBegin[Rf.ArrayId]) + Dm) * K +
                        L];
        Lo += ILo * Stride;
        Hi += IHi * Stride;
      }
      if (Lo < INT32_MIN || Hi > INT32_MAX)
        return false;
    }
  }
  return true;
}

__attribute__((target("avx512f,avx512dq"))) void
MultiTraceReplayer::replayDirectZmm32(unsigned NumLanes,
                                      uint64_t *HitsOut,
                                      uint64_t *WriteBacksOut) {
  constexpr unsigned K = 16;
  const int64_t *PADX_RESTRICT Starts = T.Starts.data();
  const int64_t *PADX_RESTRICT Bases = BaseLanes.data();
  const int64_t *PADX_RESTRICT Strides = StrideLanes.data();
  int32_t *PADX_RESTRICT Arena = TagArena32.data();
  const uint32_t *SlotDim = SlotDimBegin.data();
  const uint8_t *PADX_RESTRICT Write = RefWrite.data();

  // Truncate the per-ref lane deltas once per batch (exact mod 2^32).
  DeltaLanes32.resize(DeltaLanes.size());
  for (size_t I = 0; I != DeltaLanes.size(); ++I)
    DeltaLanes32[I] = static_cast<int32_t>(
        static_cast<uint32_t>(DeltaLanes[I]));

  const int64_t SetMask = Sims[0].directSetMask();
  const unsigned LineShift = Sims[0].lineShiftLog2();
  constexpr unsigned Log2K = 4;
  Zmm32Env Env;
  Env.SetMaskShiftedV =
      _mm512_set1_epi32(static_cast<int>(SetMask << LineShift));
  Env.IdxShiftC =
      _mm_cvtsi32_si128(static_cast<int>(LineShift - Log2K));
  Env.KeyShiftC = _mm_cvtsi32_si128(static_cast<int>(LineShift - 2));
  Env.NotThree = _mm512_set1_epi32(~3);
  Env.NotOne = _mm512_set1_epi32(~1);
  Env.One = _mm512_set1_epi32(1);
  Env.Two = _mm512_set1_epi32(2);
  alignas(64) int32_t Id[16];
  for (unsigned L = 0; L != 16; ++L)
    Id[L] = static_cast<int32_t>(L);
  Env.LaneId = _mm512_load_si512(Id);
  Env.Active = static_cast<__mmask16>((1u << NumLanes) - 1);
  Zmm32Acc Acc;
  Acc.Hit = _mm512_setzero_si512();
  Acc.DirtyMade = _mm512_setzero_si512();

  std::vector<Zmm32Pattern> Pats(T.Patterns.size());
  for (size_t PI = 0; PI != T.Patterns.size(); ++PI) {
    const RecordedTrace::Pattern &Pat = T.Patterns[PI];
    Zmm32Pattern &Z = Pats[PI];
    Z.NumRefs = Pat.RefEnd - Pat.RefBegin;
    uint32_t Off = 0;
    for (uint32_t R = 0; R != Z.NumRefs; ++R) {
      const RecordedTrace::Ref &Rf = T.Refs[Pat.RefBegin + R];
      Z.BaseRow[R] = Bases + size_t(Rf.ArrayId) * K;
      Z.StrideRow[R] = Strides + size_t(SlotDim[Rf.ArrayId]) * K;
      Z.DeltaRow32[R] =
          DeltaLanes32.data() + size_t(Pat.RefBegin + R) * K;
      Z.Rank[R] = Rf.Rank;
      Z.StartOff[R] = Off;
      Z.WBit[R] = Write[Pat.RefBegin + R];
      Off += Rf.Rank;
    }
  }

  for (const RecordedTrace::Block &B : T.Blocks) {
    const Zmm32Pattern &Z = Pats[B.PatternIndex];
    const int64_t *St = Starts + B.StartIndex;
    switch (Z.NumRefs) {
    case 1:
      runBlockZmm32<1>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 2:
      runBlockZmm32<2>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 3:
      runBlockZmm32<3>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 4:
      runBlockZmm32<4>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 5:
      runBlockZmm32<5>(Z, St, B.Count, Arena, Env, Acc);
      break;
    case 6:
      runBlockZmm32<6>(Z, St, B.Count, Arena, Env, Acc);
      break;
    default:
      break; // Unreachable: canReplayZmm32 checked MaxPatternRefs.
    }
  }

  // Settle: write-backs are dirty creations minus dirty words still in
  // the arena; one 16-lane and-and-add per set.
  const int64_t NumSets = SetMask + 1;
  __m512i Rem = _mm512_setzero_si512();
  for (int64_t S = 0; S != NumSets; ++S)
    Rem = _mm512_add_epi32(
        Rem, _mm512_and_si512(
                 _mm512_loadu_si512(Arena + size_t(S) * K), Env.One));
  const __m512i Wb = _mm512_sub_epi32(Acc.DirtyMade, Rem);
  alignas(64) int32_t H[16], W[16];
  _mm512_store_si512(H, Acc.Hit);
  _mm512_store_si512(W, Wb);
  for (unsigned L = 0; L != K; ++L) {
    HitsOut[L] = static_cast<uint64_t>(static_cast<uint32_t>(H[L]));
    WriteBacksOut[L] =
        static_cast<uint64_t>(static_cast<uint32_t>(W[L]));
  }
}

#pragma GCC diagnostic pop

#endif // PADX_REPLAY_AVX512

RunStatus
MultiTraceReplayer::replay(std::span<const layout::DataLayout> Layouts,
                           std::span<sim::CacheStats> Stats) {
  const unsigned K = static_cast<unsigned>(Layouts.size());
  assert(K >= 1 && K <= kMaxLanes && "batch width out of range");
  assert(Stats.size() == Layouts.size() && "one stats slot per lane");
  if (Sims.empty())
    Sims.emplace_back(Config); // The geometry every path reads.

  // Access, read and write totals are layout-independent — identical
  // for every lane — so they are settled in bulk once; only hits and
  // write-backs are per lane.
  uint64_t Writes = 0;
  for (const RecordedTrace::Block &B : T.Blocks)
    Writes += B.Count * PatternWrites[B.PatternIndex];
  const uint64_t Total = T.numAccesses();
  uint64_t Hits[kMaxLanes] = {};
  uint64_t WriteBacks[kMaxLanes] = {};

#if PADX_REPLAY_AVX512
  // One zmm pass: 1-8 lanes in the 8-lane row, 9-16 in the 16-lane one
  // (one 32-bit zmm where its int32 gate holds, two 64-bit ones
  // otherwise), spare lanes masked.
  if (K <= zmmLanes(T, Config)) {
    const int64_t NumSets = Sims[0].directSetMask() + 1;
    if (K <= 8) {
      buildRemaps(Layouts, 8);
      TagArena.assign(size_t(NumSets) * 8, 0);
      replayDirectZmm<1>(K, Hits, WriteBacks);
    } else {
      buildRemaps(Layouts, 16);
      if (DispatchOverride.load(std::memory_order_relaxed) !=
              Dispatch::Zmm64 &&
          canReplayZmm32(K)) {
        TagArena32.assign(size_t(NumSets) * 16, 0);
        replayDirectZmm32(K, Hits, WriteBacks);
      } else {
        TagArena.assign(size_t(NumSets) * 16, 0);
        replayDirectZmm<2>(K, Hits, WriteBacks);
      }
    }
    for (unsigned L = 0; L != K; ++L)
      Stats[L] = {Total, Total - Hits[L], Total - Writes, Writes,
                  WriteBacks[L]};
    return T.recordStatus();
  }
#endif

  while (Sims.size() < K)
    Sims.emplace_back(Config);
  for (unsigned L = 0; L != K; ++L)
    Sims[L].reset();
  const bool MaySpan = mayStraddleLines(T, Config);
  if (Sims[0].isDirectMapped() && !MaySpan) {
    // No zmm kernel for this host or geometry: a shared-decode scalar
    // lane loop loses to plain sequential replay, so take that.
    if (!Sequential)
      Sequential.emplace(T);
    for (unsigned L = 0; L != K; ++L) {
      Sequential->replay(Layouts[L], Sims[L]);
      Stats[L] = Sims[L].stats();
    }
    return T.recordStatus();
  }

  buildRemaps(Layouts, K);
  if (PADX_UNLIKELY(MaySpan)) {
    // Elements wider than a line take the general per-lane access()
    // route with its own per-access tallies.
    streamBlocks(K, [&](unsigned L, int64_t Addr, uint32_t RefIndex) {
      const RecordedTrace::Ref &R = T.Refs[RefIndex];
      Sims[L].access(Addr, R.ElemSize, R.IsWrite);
    });
    for (unsigned L = 0; L != K; ++L)
      Stats[L] = Sims[L].stats();
    return T.recordStatus();
  }

  // Associative lanes: the decode is still shared, but tag state stays
  // inside each lane's simulator (probeLine accumulates its own
  // write-backs into the lane's stats).
  const uint8_t *Write = RefWrite.data();
  streamBlocks(K, [&](unsigned L, int64_t Addr, uint32_t RefIndex) {
    Hits[L] += Sims[L].probeLine(Addr, Write[RefIndex]);
  });
  for (unsigned L = 0; L != K; ++L) {
    Sims[L].addAccessCounts(Total - Writes, Writes);
    Sims[L].addMisses(Total - Hits[L]);
    Stats[L] = Sims[L].stats();
  }
  return T.recordStatus();
}
