// Generic source of the BiQGEMM hot loops (x-tile staging, interleaved
// LUT builders, batched query tile, GEMV query rows). This header is
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
/// Keys one key_window serves at LUT unit mu (its 57 valid bits), rounded
/// down to even: the query takes them two at a time, one per chain.
constexpr std::size_t keys_per_window(unsigned mu) noexcept {
  return (57 / mu) & ~std::size_t{1};
}

/// The window's next mu-bit key; shifts it out of the window.
inline std::size_t pop_key(std::uint64_t& w, unsigned mu) noexcept {
  const auto key = static_cast<std::size_t>(w >> (64 - mu));
  w <<= mu;
  return key;
}

/// Per-row LUT-hit sums of R (1 or 2) consecutive rows of one key plane,
/// the first row's keys of the tile at stream bit `bit`, the second's
/// `cols` bits on: sum[r] = chain 0 + chain 1, chain 0 taking the even
/// tables and an odd-count tail table, chain 1 the odd tables, each in
/// table order. One key_window per row feeds keys_per_window(mu)
/// lookups. MU is the LUT unit when it is fixed at compile time, else 0
/// and `mu` holds it. The chains are named
/// variables, not arrays: on the portable plane, whose V8 lane loops GCC
/// vectorizes, arrays of accumulators spilled and ran over twice as slow.
template <unsigned MU, std::size_t R>
void row_sums(const std::uint8_t* stream, std::uint64_t bit, std::size_t cols,
              unsigned mu, std::size_t tcount, const float* lut,
              VBatch (&sum)[R]) {
  static_assert(R == 1 || R == 2);
  constexpr std::size_t W = kQueryLanes;
  if constexpr (MU != 0) mu = MU;
  const std::size_t per = keys_per_window(mu);
  const std::size_t whole = tcount - tcount % per;  // tables in full windows
  const std::size_t stride = W << mu;               // floats per table
  std::uint64_t at0 = bit, at1 = bit + cols;
  std::uint64_t w0 = 0, w1 = 0;
  VBatch even0 = VBatch::zero(), odd0 = VBatch::zero();
  VBatch even1 = VBatch::zero(), odd1 = VBatch::zero();
  const float* t = lut;
  auto refill = [&] {
    w0 = key_window(stream, at0);
    at0 += per * mu;
    if constexpr (R == 2) {
      w1 = key_window(stream, at1);
      at1 += per * mu;
    }
  };
  auto pair = [&] {
    even0 = even0 + VBatch::load(t + pop_key(w0, mu) * W);
    if constexpr (R == 2) even1 = even1 + VBatch::load(t + pop_key(w1, mu) * W);
    t += stride;
    odd0 = odd0 + VBatch::load(t + pop_key(w0, mu) * W);
    if constexpr (R == 2) odd1 = odd1 + VBatch::load(t + pop_key(w1, mu) * W);
    t += stride;
  };

  std::size_t g = 0;
  for (; g < whole; g += per) {
    refill();
    for (std::size_t j = 0; j < per; j += 2) pair();
  }
  if (g < tcount) {
    refill();
    for (; g + 2 <= tcount; g += 2) pair();
    if (g < tcount) {
      even0 = even0 + VBatch::load(t + pop_key(w0, mu) * W);
      if constexpr (R == 2) even1 = even1 + VBatch::load(t + pop_key(w1, mu) * W);
    }
  }
  sum[0] = even0 + odd0;
  if constexpr (R == 2) sum[1] = even1 + odd1;
}

/// Full-width vector query (8 lanes, 16 on AVX-512) over rows [i0, i1):
/// each row adds, per key plane in plane order, its row_sums over the
/// tile's tables (scaled) into its ytile row. The per-row order is fixed,
/// so no output depends on how rows are grouped
/// (Dispatch.QueryTileMatchesPerRowChainOrderOnEveryPlane pins it). Two
/// rows go per pass, with a one-row tail, so four independent chains are
/// in flight.
template <unsigned MU>
void query_tile_mu(const QueryTileArgs& a) {
  constexpr std::size_t W = kQueryLanes;
  for (std::size_t q = 0; q < a.num_planes; ++q) {
    const KeyMatrix& keys = a.keys[q];
    const std::uint8_t* stream = keys.stream();
    const std::size_t cols = keys.cols();
    const float* alpha = a.alphas == nullptr
                             ? nullptr
                             : a.alphas[q].data() + a.alpha_offset;
    auto rows = [&]<std::size_t R>(std::size_t i) {
      VBatch sum[R];
      row_sums<MU, R>(stream, keys.bit_offset(i, a.t0), cols, a.mu, a.tcount,
                      a.lut, sum);
      for (std::size_t r = 0; r < R; ++r) {
        float* yrow = a.ytile + (i + r) * W;
        VBatch y = VBatch::load(yrow);
        if (alpha != nullptr) {
          y.fma(VBatch::set1(alpha[(i + r) * a.alpha_stride]), sum[r]);
        } else {
          y = y + sum[r];
        }
        y.store(yrow);
      }
    };
    std::size_t i = a.i0;
    for (; i + 2 <= a.i1; i += 2) rows.template operator()<2>(i);
    if (i < a.i1) rows.template operator()<1>(i);
  }
}

/// Fixes the LUT unit at compile time for the mu the automatic rule
/// picks (core/mu_select.hpp), so key extraction shifts by constants.
void query_tile(const QueryTileArgs& a) {
  switch (a.mu) {
    case 4: return query_tile_mu<4>(a);
    case 5: return query_tile_mu<5>(a);
    case 6: return query_tile_mu<6>(a);
    case 7: return query_tile_mu<7>(a);
    case 8: return query_tile_mu<8>(a);
    default: return query_tile_mu<0>(a);
  }
}

// --------------------------------------------------------- GEMV query rows
/// Per row i in [i0, i1), the sum of LUT entries selected by its keys of
/// tables [t0, t0 + tcount), into out[i - i0]; lut is the tile base
/// (flat tables stacked every 2^mu entries). The AVX2 plane vectorizes
/// across *tables* with 8-entry gathers (for mu <= 14); both planes share
/// the scalar 4-way-unrolled tail over decoded entry indices. Compiled
/// per mu like query_tile.
template <unsigned MU>
void gemv_rows_mu(const KeyMatrix& keys, std::size_t i0, std::size_t i1,
                  std::size_t t0, std::size_t tcount, const float* lut,
                  float* out) {
  const unsigned mu = MU != 0 ? MU : keys.mu();
  const std::uint8_t* stream = keys.stream();

#if defined(__AVX2__)
  // Eight keys are mu whole bytes, so every group of eight tables starts
  // mu bytes after the last at the same bit phase: one byte shuffle and
  // one shift per lane, fixed for the phase, pull a group's fields out
  // of one 16-byte load. Lane j's field starts o = phase + j*mu bits
  // into the load; the shuffle puts its bytes o/8 .. o/8 + 2 big-endian
  // in the lane's low 24 bits (mu <= 14 keeps them within the 16 bytes,
  // and the field within 24 bits). Rows of one phase share the set-up.
  const bool gather = tcount >= 8 && mu <= 14;
  const __m256i j = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lane_mu =
      _mm256_mullo_epi32(j, _mm256_set1_epi32(static_cast<int>(mu)));
  const __m256i lane_off = _mm256_slli_epi32(j, static_cast<int>(mu));
  const __m256i mask = _mm256_set1_epi32((1 << mu) - 1);
  const std::size_t group_floats = std::size_t{8} << mu;
  __m256i ctrl = _mm256_setzero_si256(), shift = _mm256_setzero_si256();
  unsigned phase = 8;  // none set up yet
#endif

  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint64_t bit0 = keys.bit_offset(i, t0);
    std::size_t g = 0;
    float acc = 0.0f;

#if defined(__AVX2__)
    if (gather && (bit0 & 7u) != phase) {
      phase = static_cast<unsigned>(bit0 & 7u);
      const __m256i o = _mm256_add_epi32(
          _mm256_set1_epi32(static_cast<int>(phase)), lane_mu);
      const __m256i b = _mm256_srli_epi32(o, 3);
      ctrl = _mm256_add_epi32(
          _mm256_add_epi32(b, _mm256_add_epi32(_mm256_slli_epi32(b, 8),
                                               _mm256_slli_epi32(b, 16))),
          _mm256_set1_epi32(static_cast<int>(0x80000102u)));
      shift = _mm256_sub_epi32(_mm256_set1_epi32(static_cast<int>(24 - mu)),
                               _mm256_and_si256(o, _mm256_set1_epi32(7)));
    }
    // At mu 8 and a whole-byte start the fields are the stream's bytes.
    const bool whole_bytes = mu == 8 && phase == 0;
    const std::uint8_t* next = stream + (bit0 >> 3);
    // Entry index of lane j in the next group, from the group's table
    // base: lane j's table offset j << mu plus its key.
    auto next_idx = [&] {
      __m256i k;
      if (whole_bytes) {
        k = _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(next)));
      } else {
        const __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(next));
        k = _mm256_and_si256(
            _mm256_srlv_epi32(
                _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(bytes), ctrl),
                shift),
            mask);
      }
      next += mu;
      return _mm256_add_epi32(k, lane_off);
    };
    if (gather) {
      // Two independent gather chains hide most of the gather latency.
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      const float* base = lut;
      for (; g + 16 <= tcount; g += 16) {
        acc0 = _mm256_add_ps(acc0, _mm256_i32gather_ps(base, next_idx(), 4));
        base += group_floats;
        acc1 = _mm256_add_ps(acc1, _mm256_i32gather_ps(base, next_idx(), 4));
        base += group_floats;
      }
      if (g + 8 <= tcount) {
        acc0 = _mm256_add_ps(acc0, _mm256_i32gather_ps(base, next_idx(), 4));
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

    // The rest, four chains by position, one key_window per four tables
    // (mu <= 14), then a leftover chain.
    auto hit = [&](std::size_t at) {
      return lut[(at << mu) + (key_window(stream, bit0 + at * mu) >> (64 - mu))];
    };
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    for (; g + 4 <= tcount; g += 4) {
      if (mu <= 14) {
        const float* t = lut + (g << mu);
        std::uint64_t w = key_window(stream, bit0 + g * mu);
        a0 += t[pop_key(w, mu)];
        a1 += t[(std::size_t{1} << mu) + pop_key(w, mu)];
        a2 += t[(std::size_t{2} << mu) + pop_key(w, mu)];
        a3 += t[(std::size_t{3} << mu) + pop_key(w, mu)];
      } else {
        a0 += hit(g);
        a1 += hit(g + 1);
        a2 += hit(g + 2);
        a3 += hit(g + 3);
      }
    }
    for (; g < tcount; ++g) acc += hit(g);
    out[i - i0] = acc + (a0 + a1) + (a2 + a3);
  }
}

void gemv_rows(const KeyMatrix& keys, std::size_t i0, std::size_t i1,
               std::size_t t0, std::size_t tcount, const float* lut,
               float* out) {
  switch (keys.mu()) {
    case 4: return gemv_rows_mu<4>(keys, i0, i1, t0, tcount, lut, out);
    case 5: return gemv_rows_mu<5>(keys, i0, i1, t0, tcount, lut, out);
    case 6: return gemv_rows_mu<6>(keys, i0, i1, t0, tcount, lut, out);
    case 7: return gemv_rows_mu<7>(keys, i0, i1, t0, tcount, lut, out);
    case 8: return gemv_rows_mu<8>(keys, i0, i1, t0, tcount, lut, out);
    default: return gemv_rows_mu<0>(keys, i0, i1, t0, tcount, lut, out);
  }
}

/// This TU's BiqKernels table, exported through its KernelPlane.
BiqKernels biq_table() noexcept {
  BiqKernels t;
  t.query_lanes = kQueryLanes;
  t.stage_x_tile = &stage_x_tile;
  t.build_dp = &build_dp;
  t.build_mm = &build_mm;
  t.query_tile = &query_tile;
  t.gemv_rows = &gemv_rows;
  return t;
}

}  // namespace

}  // namespace BIQ_KERNELS_NS
}  // namespace biq::engine
