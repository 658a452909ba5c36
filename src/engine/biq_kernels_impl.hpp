// Generic source of the BiQGEMM hot loops (x-tile staging, interleaved
// LUT builders, batched query tile, GEMV query row). This header is
// included exactly once per ISA translation unit with BIQ_KERNELS_NS
// set to that unit's namespace (kern_scalar / kern_avx2 / kern_avx512);
// the TU's compile flags decide whether the vector types below lower to
// AVX2/AVX-512 intrinsics or to portable per-lane loops, and fix the
// batch-tile width (VBatch / kQueryLanes: 8 lanes, 16 on AVX-512). All planes run
// the same arithmetic in the same per-lane order — only the instruction
// encoding differs — which is what makes the cross-plane bitwise
// consistency tests possible.
//
// blocked_kernels_impl.hpp (the dense microkernel plane) must be
// included AFTER this header in the same TU: it reuses the V8 type
// defined in this TU's anonymous namespace.
//
// Everything here lives behind the BiqKernels function-pointer table
// (engine/dispatch.hpp); nothing outside the engine layer includes this.

#ifndef BIQ_KERNELS_NS
#error "biq_kernels_impl.hpp must be included with BIQ_KERNELS_NS defined"
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/key_matrix.hpp"
#include "engine/dispatch.hpp"
#include "matrix/view.hpp"

namespace biq::engine {
namespace BIQ_KERNELS_NS {
namespace {

// ------------------------------------------------------------------ V8
// 8-lane fp32 vector with identical semantics on every plane.
#if defined(__AVX2__)

struct V8 {
  __m256 v;

  static V8 zero() noexcept { return {_mm256_setzero_ps()}; }
  static V8 set1(float x) noexcept { return {_mm256_set1_ps(x)}; }
  static V8 load(const float* p) noexcept { return {_mm256_load_ps(p)}; }
  static V8 loadu(const float* p) noexcept { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const noexcept { _mm256_store_ps(p, v); }
  void storeu(float* p) const noexcept { _mm256_storeu_ps(p, v); }

  friend V8 operator+(V8 a, V8 b) noexcept { return {_mm256_add_ps(a.v, b.v)}; }

  /// this += a * b
  void fma(V8 a, V8 b) noexcept { v = _mm256_fmadd_ps(a.v, b.v, v); }

  [[nodiscard]] V8 negate() const noexcept {
    return {_mm256_xor_ps(v, _mm256_set1_ps(-0.0f))};
  }
};

#else  // portable plane

struct V8 {
  float v[8];

  static V8 zero() noexcept { return V8{}; }
  static V8 set1(float x) noexcept {
    V8 r;
    for (float& lane : r.v) lane = x;
    return r;
  }
  static V8 load(const float* p) noexcept { return loadu(p); }
  static V8 loadu(const float* p) noexcept {
    V8 r;
    for (int i = 0; i < 8; ++i) r.v[i] = p[i];
    return r;
  }
  void store(float* p) const noexcept { storeu(p); }
  void storeu(float* p) const noexcept {
    for (int i = 0; i < 8; ++i) p[i] = v[i];
  }

  friend V8 operator+(V8 a, V8 b) noexcept {
    V8 r;
    for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }

  void fma(V8 a, V8 b) noexcept {
    for (int i = 0; i < 8; ++i) v[i] += a.v[i] * b.v[i];
  }

  [[nodiscard]] V8 negate() const noexcept {
    V8 r;
    for (int i = 0; i < 8; ++i) r.v[i] = -v[i];
    return r;
  }
};

#endif  // __AVX2__

// ----------------------------------------------------------------- V16
// 16-lane fp32 vector for the AVX-512 plane's batched query/build. The
// negate is a sign-bit xor (not 0 - x) so -0.0f round-trips and LUT
// entries stay bitwise identical to the scalar per-lane recurrence.
#if defined(__AVX512F__)

struct V16 {
  __m512 v;

  static V16 zero() noexcept { return {_mm512_setzero_ps()}; }
  static V16 set1(float x) noexcept { return {_mm512_set1_ps(x)}; }
  static V16 load(const float* p) noexcept { return {_mm512_load_ps(p)}; }
  static V16 loadu(const float* p) noexcept { return {_mm512_loadu_ps(p)}; }
  void store(float* p) const noexcept { _mm512_store_ps(p, v); }
  void storeu(float* p) const noexcept { _mm512_storeu_ps(p, v); }

  friend V16 operator+(V16 a, V16 b) noexcept {
    return {_mm512_add_ps(a.v, b.v)};
  }

  /// this += a * b
  void fma(V16 a, V16 b) noexcept { v = _mm512_fmadd_ps(a.v, b.v, v); }

  [[nodiscard]] V16 negate() const noexcept {
    return {_mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(v), _mm512_set1_epi32(INT32_C(0x80000000))))};
  }
};

using VBatch = V16;
inline constexpr std::size_t kQueryLanes = 16;

#else  // scalar / AVX2 planes

using VBatch = V8;
inline constexpr std::size_t kQueryLanes = 8;

#endif  // __AVX512F__

// ------------------------------------- masked segments, in-register transpose
// load_n / store_n move lanes [0, n) of a VBatch (the rest load as zero
// and are not stored; nothing past p + n is touched). transpose() turns
// W vectors of W lanes into their transpose: afterwards r[i] lane j
// holds what r[j] lane i held.
#if defined(__AVX512F__)

__mmask16 lane_mask(std::size_t n) noexcept {
  return static_cast<__mmask16>((1u << n) - 1u);
}
VBatch load_n(const float* p, std::size_t n) noexcept {
  return {_mm512_maskz_loadu_ps(lane_mask(n), p)};
}
void store_n(VBatch a, float* p, std::size_t n) noexcept {
  _mm512_mask_storeu_ps(p, lane_mask(n), a.v);
}

/// 16 x 16: pairs of rows interleave by float, then by float pair, then
/// 128-bit lanes swap twice. The all-lanes-masked intrinsic forms take
/// an explicit pass-through operand: GCC 12's unmasked forms pass an
/// undefined one, which trips -Wuninitialized under -Werror.
void transpose(VBatch (&r)[16]) noexcept {
  constexpr __mmask16 kAll = 0xFFFF;
  constexpr __mmask8 kAll8 = 0xFF;
  __m512 t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_mask_unpacklo_ps(r[i].v, kAll, r[i].v, r[i + 1].v);
    t[i + 1] = _mm512_mask_unpackhi_ps(r[i].v, kAll, r[i].v, r[i + 1].v);
  }
  auto lo = [](__m512 a, __m512 b) {
    const __m512d ad = _mm512_castps_pd(a);
    return _mm512_castpd_ps(
        _mm512_mask_unpacklo_pd(ad, kAll8, ad, _mm512_castps_pd(b)));
  };
  auto hi = [](__m512 a, __m512 b) {
    const __m512d ad = _mm512_castps_pd(a);
    return _mm512_castpd_ps(
        _mm512_mask_unpackhi_pd(ad, kAll8, ad, _mm512_castps_pd(b)));
  };
  auto lanes = [](__m512 a, __m512 b, auto imm) {
    return _mm512_mask_shuffle_f32x4(a, kAll, a, b, decltype(imm)::value);
  };
  using Even = std::integral_constant<int, 0x88>;  // 128-bit lanes 0, 2
  using Odd = std::integral_constant<int, 0xdd>;   // 128-bit lanes 1, 3
  __m512 u[16];
  for (int i = 0; i < 16; i += 4) {
    u[i] = lo(t[i], t[i + 2]);
    u[i + 1] = hi(t[i], t[i + 2]);
    u[i + 2] = lo(t[i + 1], t[i + 3]);
    u[i + 3] = hi(t[i + 1], t[i + 3]);
  }
  // u[4g + i], 128-bit lane L: element 4L + i of rows 4g..4g+3.
  for (int i = 0; i < 4; ++i) {
    t[i] = lanes(u[i], u[i + 4], Even{});
    t[i + 4] = lanes(u[i], u[i + 4], Odd{});
    t[i + 8] = lanes(u[i + 8], u[i + 12], Even{});
    t[i + 12] = lanes(u[i + 8], u[i + 12], Odd{});
  }
  for (int i = 0; i < 4; ++i) {
    r[i].v = lanes(t[i], t[i + 8], Even{});
    r[i + 8].v = lanes(t[i], t[i + 8], Odd{});
    r[i + 4].v = lanes(t[i + 4], t[i + 12], Even{});
    r[i + 12].v = lanes(t[i + 4], t[i + 12], Odd{});
  }
}

#elif defined(__AVX2__)

__m256i lane_mask(std::size_t n) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
VBatch load_n(const float* p, std::size_t n) noexcept {
  return {_mm256_maskload_ps(p, lane_mask(n))};
}
void store_n(VBatch a, float* p, std::size_t n) noexcept {
  _mm256_maskstore_ps(p, lane_mask(n), a.v);
}

/// 8 x 8: pairs of rows interleave by float, then by float pair, then
/// the 128-bit halves swap.
void transpose(VBatch (&r)[8]) noexcept {
  __m256 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i].v, r[i + 1].v);
    t[i + 1] = _mm256_unpackhi_ps(r[i].v, r[i + 1].v);
  }
  __m256 u[8];
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
    u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
    u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
    u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
  }
  for (int i = 0; i < 4; ++i) {
    r[i].v = _mm256_permute2f128_ps(u[i], u[i + 4], 0x20);
    r[i + 4].v = _mm256_permute2f128_ps(u[i], u[i + 4], 0x31);
  }
}

#else  // portable plane

VBatch load_n(const float* p, std::size_t n) noexcept {
  VBatch r = VBatch::zero();
  for (std::size_t i = 0; i < n; ++i) r.v[i] = p[i];
  return r;
}
void store_n(VBatch a, float* p, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) p[i] = a.v[i];
}
void transpose(VBatch (&r)[kQueryLanes]) noexcept {
  for (std::size_t i = 0; i < kQueryLanes; ++i) {
    for (std::size_t j = i + 1; j < kQueryLanes; ++j) {
      const float t = r[i].v[j];
      r[i].v[j] = r[j].v[i];
      r[j].v[i] = t;
    }
  }
}

#endif

// -------------------------------------------------------------- staging
/// Stages x rows [r0, r0 + nrows) of columns [c0, c0 + ncols) into the
/// row-major tile xt[r * lanes + lane] = x(r0 + r, c0 + lane), zero past
/// x's last row (the tail-group guarantee) and past ncols (a narrow
/// batch tile runs at the plane's full width; each lane is independent,
/// so the padding never reaches a real column). At the query width the
/// vector planes load W-row segments of the W columns and transpose
/// them in registers; the portable plane, and the one-lane tile of
/// batch 1, copy element by element. Both give the same bits.
void stage_x_tile(ConstMatrixView x, std::size_t c0, std::size_t ncols,
                  std::size_t r0, std::size_t nrows, std::size_t lanes,
                  float* xt) {
  const std::size_t n = x.rows();
#if defined(__AVX2__)
  if (lanes == kQueryLanes) {
    constexpr std::size_t W = kQueryLanes;
    for (std::size_t rb = 0; rb < nrows; rb += W) {
      const std::size_t row = r0 + rb;
      const std::size_t real = row < n ? std::min(W, n - row) : 0;
      VBatch r[W];
      for (std::size_t lane = 0; lane < W; ++lane) {
        if (lane >= ncols || real == 0) {
          r[lane] = VBatch::zero();
        } else if (real == W) {
          r[lane] = VBatch::loadu(x.col(c0 + lane) + row);
        } else {
          r[lane] = load_n(x.col(c0 + lane) + row, real);
        }
      }
      transpose(r);
      const std::size_t rows = std::min(W, nrows - rb);
      for (std::size_t k = 0; k < rows; ++k) r[k].storeu(xt + (rb + k) * W);
    }
    return;
  }
#endif
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::size_t row = r0 + r;
    float* dst = xt + r * lanes;
    const std::size_t real = row < n ? ncols : 0;
    for (std::size_t lane = 0; lane < real; ++lane) {
      dst[lane] = x(row, c0 + lane);
    }
    for (std::size_t lane = real; lane < lanes; ++lane) dst[lane] = 0.0f;
  }
}

// --------------------------------------------------- LUT builders (Fig. 4)
// Both builders fill one batch tile of kQueryLanes columns: xt is
// [mu x kQueryLanes] row-major, entry layout lut[k*kQueryLanes + lane].
// Narrow batches arrive zero-padded to the full width.

// Interleaved DP builder (Algorithm 1).
void build_dp(const float* xt, unsigned mu, float* lut) {
  constexpr std::size_t W = kQueryLanes;
  const std::size_t half = std::size_t{1} << (mu - 1);
  const std::size_t full = half << 1;

  VBatch sum = VBatch::zero();
  for (unsigned j = 0; j < mu; ++j) {
    sum = sum + VBatch::loadu(xt + j * W);
  }
  sum.negate().storeu(lut);

  for (unsigned s = 1; s < mu; ++s) {
    const std::size_t base = std::size_t{1} << (s - 1);
    const VBatch twice =
        VBatch::loadu(xt + (mu - s) * W) + VBatch::loadu(xt + (mu - s) * W);
    for (std::size_t j = 0; j < base; ++j) {
      (VBatch::loadu(lut + j * W) + twice).storeu(lut + (base + j) * W);
    }
  }
  for (std::size_t k = half; k < full; ++k) {
    VBatch::loadu(lut + (full - 1 - k) * W).negate().storeu(lut + k * W);
  }
}

/// Interleaved brute-force builder (the Tc,mm ablation comparison).
void build_mm(const float* xt, unsigned mu, float* lut) {
  constexpr std::size_t W = kQueryLanes;
  const std::size_t full = std::size_t{1} << mu;
  for (std::size_t k = 0; k < full; ++k) {
    VBatch acc = VBatch::zero();
    for (unsigned j = 0; j < mu; ++j) {
      const VBatch xv = VBatch::loadu(xt + j * W);
      const bool plus = ((k >> (mu - 1 - j)) & 1u) != 0;
      acc = plus ? acc + xv : acc + xv.negate();
    }
    acc.storeu(lut + k * W);
  }
}

// --------------------------------------------------- batched query (Alg. 2)
template <typename KeyT>
const KeyT* key_row(const KeyMatrix& k, std::size_t i) noexcept {
  if constexpr (sizeof(KeyT) == 1) {
    return k.row8(i);
  } else {
    return k.row16(i);
  }
}

/// Full-width vector query (8 lanes, 16 on AVX-512) over rows [i0, i1):
/// each row adds, per key plane, the sum of its LUT hits over the tile's
/// tables into its ytile row. The per-row order is fixed — even tables
/// into chain 0, odd tables into chain 1, an odd-count tail table into
/// chain 0, then chain 0 + chain 1, then the (scaled) add into y in
/// plane order — so no output depends on how rows are grouped
/// (Dispatch.QueryTileMatchesPerRowChainOrderOnEveryPlane pins it).
///
/// Two rows go per pass, with a one-row tail, so four independent
/// chains are in flight. The table pointer advances 2^mu * W floats per
/// table, so a lookup is a key load, a constant shift and a vector add,
/// with no shift by the runtime mu. Both loops step the key pointers by
/// two, and the exact form matters on the portable plane, whose V8 lane
/// loops GCC vectorizes: equivalent forms (an index shared by both key
/// rows, or the tail loop written like the pair loop) spilled
/// accumulators and ran the pair loop up to twice as slow.
template <typename KeyT>
void query_tile(const QueryTileArgs& a) {
  constexpr std::size_t W = kQueryLanes;
  const std::size_t stride = W << a.mu;  // floats per table
  const std::size_t pairs = a.tcount / 2;
  const bool tail = (a.tcount & 1u) != 0;
  const bool scaled = a.alphas != nullptr;
  auto alpha = [&](std::size_t q, std::size_t i) {
    return VBatch::set1(a.alphas[q][i * a.alpha_stride + a.alpha_offset]);
  };

  std::size_t i = a.i0;
  for (; i + 2 <= a.i1; i += 2) {
    float* yrow0 = a.ytile + i * W;
    float* yrow1 = yrow0 + W;
    VBatch y0 = VBatch::load(yrow0);
    VBatch y1 = VBatch::load(yrow1);
    for (std::size_t q = 0; q < a.num_planes; ++q) {
      const KeyT* k0 = key_row<KeyT>(a.keys[q], i) + a.t0;
      const KeyT* k1 = key_row<KeyT>(a.keys[q], i + 1) + a.t0;
      const float* t = a.lut;
      VBatch acc00 = VBatch::zero(), acc01 = VBatch::zero();
      VBatch acc10 = VBatch::zero(), acc11 = VBatch::zero();
      for (std::size_t p = 0; p < pairs; ++p, k0 += 2, k1 += 2) {
        acc00 = acc00 + VBatch::load(t + k0[0] * W);
        acc10 = acc10 + VBatch::load(t + k1[0] * W);
        t += stride;
        acc01 = acc01 + VBatch::load(t + k0[1] * W);
        acc11 = acc11 + VBatch::load(t + k1[1] * W);
        t += stride;
      }
      if (tail) {
        acc00 = acc00 + VBatch::load(t + k0[0] * W);
        acc10 = acc10 + VBatch::load(t + k1[0] * W);
      }
      acc00 = acc00 + acc01;
      acc10 = acc10 + acc11;
      if (scaled) {
        y0.fma(alpha(q, i), acc00);
        y1.fma(alpha(q, i + 1), acc10);
      } else {
        y0 = y0 + acc00;
        y1 = y1 + acc10;
      }
    }
    y0.store(yrow0);
    y1.store(yrow1);
  }

  if (i < a.i1) {
    float* yrow = a.ytile + i * W;
    VBatch yv = VBatch::load(yrow);
    for (std::size_t q = 0; q < a.num_planes; ++q) {
      const KeyT* k0 = key_row<KeyT>(a.keys[q], i) + a.t0;
      const float* t = a.lut;
      VBatch acc0 = VBatch::zero(), acc1 = VBatch::zero();
      for (std::size_t p = 0; p < pairs; ++p, k0 += 2) {
        acc0 = acc0 + VBatch::load(t + k0[0] * W);
        acc1 = acc1 + VBatch::load(t + stride + k0[1] * W);
        t += 2 * stride;
      }
      if (tail) acc0 = acc0 + VBatch::load(t + k0[0] * W);
      acc0 = acc0 + acc1;
      if (scaled) {
        yv.fma(alpha(q, i), acc0);
      } else {
        yv = yv + acc0;
      }
    }
    yv.store(yrow);
  }
}

// --------------------------------------------------------- GEMV query row
/// Sum of LUT entries selected by one key row over tables [0, tcount);
/// lut is the tile base (flat tables stacked every 2^mu entries). The
/// AVX2 plane vectorizes across *tables* with 8-entry gathers; both
/// planes share the scalar 4-way-unrolled tail.
template <typename KeyT>
float gemv_row(const KeyT* krow, std::size_t tcount, unsigned mu,
               const float* lut) {
  std::size_t g = 0;
  float acc = 0.0f;

#if defined(__AVX2__)
  if (tcount >= 8) {
    const __m256i lane_off = _mm256_setr_epi32(
        0, 1 << mu, 2 << mu, 3 << mu, 4 << mu, 5 << mu, 6 << mu, 7 << mu);
    auto load_idx = [&](std::size_t at) {
      __m256i keys32;
      if constexpr (sizeof(KeyT) == 1) {
        const __m128i raw =
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(krow + at));
        keys32 = _mm256_cvtepu8_epi32(raw);
      } else {
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(krow + at));
        keys32 = _mm256_cvtepu16_epi32(raw);
      }
      return _mm256_add_epi32(
          keys32, _mm256_add_epi32(
                      lane_off, _mm256_set1_epi32(static_cast<int>(at << mu))));
    };
    // Two independent gather chains hide most of the gather latency.
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (; g + 16 <= tcount; g += 16) {
      acc0 = _mm256_add_ps(acc0, _mm256_i32gather_ps(lut, load_idx(g), 4));
      acc1 = _mm256_add_ps(acc1, _mm256_i32gather_ps(lut, load_idx(g + 8), 4));
    }
    if (g + 8 <= tcount) {
      acc0 = _mm256_add_ps(acc0, _mm256_i32gather_ps(lut, load_idx(g), 4));
      g += 8;
    }
    const __m256 s8 = _mm256_add_ps(acc0, acc1);
    const __m128 lo = _mm256_castps256_ps128(s8);
    const __m128 hi = _mm256_extractf128_ps(s8, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    acc = _mm_cvtss_f32(s);
  }
#endif

  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  for (; g + 4 <= tcount; g += 4) {
    a0 += lut[((g + 0) << mu) + krow[g + 0]];
    a1 += lut[((g + 1) << mu) + krow[g + 1]];
    a2 += lut[((g + 2) << mu) + krow[g + 2]];
    a3 += lut[((g + 3) << mu) + krow[g + 3]];
  }
  for (; g < tcount; ++g) acc += lut[(g << mu) + krow[g]];
  return acc + (a0 + a1) + (a2 + a3);
}

/// This TU's BiqKernels table, exported through its KernelPlane.
BiqKernels biq_table() noexcept {
  BiqKernels t;
  t.query_lanes = kQueryLanes;
  t.stage_x_tile = &stage_x_tile;
  t.build_dp = &build_dp;
  t.build_mm = &build_mm;
  t.query_tile_u8 = &query_tile<std::uint8_t>;
  t.query_tile_u16 = &query_tile<std::uint16_t>;
  t.gemv_row_u8 = &gemv_row<std::uint8_t>;
  t.gemv_row_u16 = &gemv_row<std::uint16_t>;
  return t;
}

}  // namespace

}  // namespace BIQ_KERNELS_NS
}  // namespace biq::engine
