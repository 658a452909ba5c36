// Generic source of the fp32 math plane: one vectorized exp, the GELU /
// sigmoid / tanh sweeps built on it, the column softmax and the
// attention-head kernel. Compiled once per ISA exactly like
// biq_kernels_impl.hpp: include this AFTER biq_kernels_impl.hpp in the
// same per-ISA TU with the same BIQ_KERNELS_NS. It computes on that TU's
// VBatch type (16 lanes on AVX-512, 8 elsewhere); the extra operations
// below lower to intrinsics on the vector planes and to per-lane loops
// on the portable plane.
//
// Position independence: every element-wise sweep runs one vector body
// per kMathLanes elements and finishes a tail with a masked run of the
// SAME body (zero-filled lanes, masked store), never a scalar formula.
// So an element's bits do not depend on where it falls in a sweep, and
// a row-tiled epilogue gives the same bits at any thread count. The
// planes themselves differ by FMA contraction, so they agree to
// rounding, not bitwise.
//
// Everything here lives behind the MathKernels function-pointer table
// (engine/dispatch.hpp); nothing outside the engine layer includes this.

#ifndef BIQ_KERNELS_NS
#error "math_kernels_impl.hpp must be included with BIQ_KERNELS_NS defined"
#endif

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "engine/dispatch.hpp"
#include "matrix/view.hpp"

namespace biq::engine {
namespace BIQ_KERNELS_NS {
namespace {

using VM = VBatch;
inline constexpr std::size_t kMathLanes = kQueryLanes;

// ------------------------------------------------ per-ISA vector operations
// vmax/vmin follow the x86 MAXPS/MINPS rule on every plane — a > b ? a : b
// — so a NaN in the second operand passes through.
#if defined(__AVX512F__)
// The all-lanes-masked intrinsic forms below take an explicit pass-through
// operand: GCC 12's unmasked forms pass an undefined one, which trips
// -Wmaybe-uninitialized under -Werror.
constexpr __mmask16 kAllLanes = 0xFFFF;

VM vsub(VM a, VM b) noexcept { return {_mm512_sub_ps(a.v, b.v)}; }
VM vmul(VM a, VM b) noexcept { return {_mm512_mul_ps(a.v, b.v)}; }
VM vdiv(VM a, VM b) noexcept { return {_mm512_div_ps(a.v, b.v)}; }
VM vmax(VM a, VM b) noexcept {
  return {_mm512_mask_max_ps(a.v, kAllLanes, a.v, b.v)};
}
VM vmin(VM a, VM b) noexcept {
  return {_mm512_mask_min_ps(a.v, kAllLanes, a.v, b.v)};
}
/// a * b + c
VM vfma(VM a, VM b, VM c) noexcept { return {_mm512_fmadd_ps(a.v, b.v, c.v)}; }
/// a < b ? x : y, per lane
VM vselect_lt(VM a, VM b, VM x, VM y) noexcept {
  return {_mm512_mask_blend_ps(_mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ), y.v,
                               x.v)};
}
VM vabs(VM a) noexcept {
  return {_mm512_castsi512_ps(_mm512_and_epi32(
      _mm512_castps_si512(a.v), _mm512_set1_epi32(0x7fffffff)))};
}
/// mag with the sign bit of sgn or-ed in (mag must have a clear sign).
VM vor_sign(VM mag, VM sgn) noexcept {
  const __m512i s = _mm512_and_epi32(_mm512_castps_si512(sgn.v),
                                     _mm512_set1_epi32(INT32_MIN));
  return {_mm512_castsi512_ps(_mm512_or_epi32(_mm512_castps_si512(mag.v), s))};
}
/// Exponent bits: lane holds (bits + 127) << 23 of an integer-valued
/// magic-shifted float (see pow2i).
VM vexp_bits(VM t) noexcept {
  const __m512i k =
      _mm512_add_epi32(_mm512_castps_si512(t.v), _mm512_set1_epi32(127));
  return {_mm512_castsi512_ps(_mm512_mask_slli_epi32(k, kAllLanes, k, 23))};
}
__mmask16 lane_mask(std::size_t n) noexcept {
  return static_cast<__mmask16>((1u << n) - 1u);
}
/// Lanes [0, n) from p, the rest zero; reads nothing past p + n.
VM load_n(const float* p, std::size_t n) noexcept {
  return {_mm512_maskz_loadu_ps(lane_mask(n), p)};
}
void store_n(VM a, float* p, std::size_t n) noexcept {
  _mm512_mask_storeu_ps(p, lane_mask(n), a.v);
}
/// Lanes [0, n) of a, the rest zero.
VM keep_n(VM a, std::size_t n) noexcept {
  return {_mm512_maskz_mov_ps(lane_mask(n), a.v)};
}
/// 256-bit half I of a (0 = lower).
template <int I>
__m256 half(VM a) noexcept {
  return _mm256_castpd_ps(_mm512_mask_extractf64x4_pd(
      _mm256_setzero_pd(), 0xF, _mm512_castps_pd(a.v), I));
}
float hsum(VM a) noexcept {
  __m256 h = _mm256_add_ps(half<0>(a), half<1>(a));
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}
float hmax(VM a) noexcept {
  __m256 h = _mm256_max_ps(half<0>(a), half<1>(a));
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

#elif defined(__AVX2__)

VM vsub(VM a, VM b) noexcept { return {_mm256_sub_ps(a.v, b.v)}; }
VM vmul(VM a, VM b) noexcept { return {_mm256_mul_ps(a.v, b.v)}; }
VM vdiv(VM a, VM b) noexcept { return {_mm256_div_ps(a.v, b.v)}; }
VM vmax(VM a, VM b) noexcept { return {_mm256_max_ps(a.v, b.v)}; }
VM vmin(VM a, VM b) noexcept { return {_mm256_min_ps(a.v, b.v)}; }
VM vfma(VM a, VM b, VM c) noexcept { return {_mm256_fmadd_ps(a.v, b.v, c.v)}; }
VM vselect_lt(VM a, VM b, VM x, VM y) noexcept {
  return {_mm256_blendv_ps(y.v, x.v, _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ))};
}
VM vabs(VM a) noexcept {
  return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.v)};
}
VM vor_sign(VM mag, VM sgn) noexcept {
  return {_mm256_or_ps(mag.v, _mm256_and_ps(sgn.v, _mm256_set1_ps(-0.0f)))};
}
VM vexp_bits(VM t) noexcept {
  return {_mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_castps_si256(t.v), _mm256_set1_epi32(127)),
      23))};
}
__m256i lane_mask(std::size_t n) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
VM load_n(const float* p, std::size_t n) noexcept {
  return {_mm256_maskload_ps(p, lane_mask(n))};
}
void store_n(VM a, float* p, std::size_t n) noexcept {
  _mm256_maskstore_ps(p, lane_mask(n), a.v);
}
VM keep_n(VM a, std::size_t n) noexcept {
  return {_mm256_and_ps(a.v, _mm256_castsi256_ps(lane_mask(n)))};
}
float hsum(VM a) noexcept {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(a.v),
                        _mm256_extractf128_ps(a.v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}
float hmax(VM a) noexcept {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(a.v),
                        _mm256_extractf128_ps(a.v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

#else  // portable plane: the same operations as per-lane loops

template <typename F>
VM lanewise(VM a, VM b, F f) noexcept {
  VM r;
  for (std::size_t i = 0; i < kMathLanes; ++i) r.v[i] = f(a.v[i], b.v[i]);
  return r;
}
VM vsub(VM a, VM b) noexcept {
  return lanewise(a, b, [](float x, float y) { return x - y; });
}
VM vmul(VM a, VM b) noexcept {
  return lanewise(a, b, [](float x, float y) { return x * y; });
}
VM vdiv(VM a, VM b) noexcept {
  return lanewise(a, b, [](float x, float y) { return x / y; });
}
VM vmax(VM a, VM b) noexcept {
  return lanewise(a, b, [](float x, float y) { return x > y ? x : y; });
}
VM vmin(VM a, VM b) noexcept {
  return lanewise(a, b, [](float x, float y) { return x < y ? x : y; });
}
VM vfma(VM a, VM b, VM c) noexcept {
  c.fma(a, b);
  return c;
}
VM vselect_lt(VM a, VM b, VM x, VM y) noexcept {
  VM r;
  for (std::size_t i = 0; i < kMathLanes; ++i) {
    r.v[i] = a.v[i] < b.v[i] ? x.v[i] : y.v[i];
  }
  return r;
}
VM vabs(VM a) noexcept {
  VM r;
  for (std::size_t i = 0; i < kMathLanes; ++i) r.v[i] = std::fabs(a.v[i]);
  return r;
}
VM vor_sign(VM mag, VM sgn) noexcept {
  VM r;
  for (std::size_t i = 0; i < kMathLanes; ++i) {
    r.v[i] = std::signbit(sgn.v[i]) ? -mag.v[i] : mag.v[i];
  }
  return r;
}
VM vexp_bits(VM t) noexcept {
  VM r;
  for (std::size_t i = 0; i < kMathLanes; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &t.v[i], sizeof bits);
    bits = (bits + 127u) << 23;
    std::memcpy(&r.v[i], &bits, sizeof bits);
  }
  return r;
}
VM load_n(const float* p, std::size_t n) noexcept {
  VM r = VM::zero();
  for (std::size_t i = 0; i < n; ++i) r.v[i] = p[i];
  return r;
}
void store_n(VM a, float* p, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) p[i] = a.v[i];
}
VM keep_n(VM a, std::size_t n) noexcept {
  for (std::size_t i = n; i < kMathLanes; ++i) a.v[i] = 0.0f;
  return a;
}
float hsum(VM a) noexcept {
  float s = 0.0f;
  for (float x : a.v) s += x;
  return s;
}
float hmax(VM a) noexcept {
  float m = a.v[0];
  for (float x : a.v) m = x > m ? x : m;
  return m;
}

#endif

/// Round to nearest even for |x| < 2^22: adding and removing 1.5 * 2^23
/// leaves the integer part in the mantissa (exact IEEE arithmetic, so
/// every plane rounds alike).
constexpr float kRoundMagic = 12582912.0f;
VM vround(VM x) noexcept {
  return vsub(x + VM::set1(kRoundMagic), VM::set1(kRoundMagic));
}

/// 2^n for integer-valued n in [-126, 127]: the magic-shifted float's
/// low mantissa bits hold n in two's complement, and shifting n + 127
/// into the exponent field discards everything above them.
VM pow2i(VM n) noexcept { return vexp_bits(n + VM::set1(kRoundMagic)); }

// ---------------------------------------------------------------- exp
/// e^x, within 2 ulp of std::exp on normal results. Range reduction
/// x = n ln2 + r (Cody-Waite split of ln2, |r| <= ln2 / 2), the
/// polynomial 1 + r + r^2 P5(r) for e^r, then the 2^n scale applied as two halves so
/// every intermediate stays normal and the one rounding happens in the
/// last multiply. That multiply also produces the limits: +Inf past
/// ln(FLT_MAX) ~ 88.72, gradual underflow, and +0 below -104 (clamped
/// there so n stays in range). NaN propagates through the clamps.
VM exp_body(VM x) noexcept {
  const VM xc = vmin(VM::set1(88.75f), vmax(VM::set1(-104.0f), x));
  const VM n = vround(vmul(xc, VM::set1(1.44269504088896341f)));
  VM r = vfma(n, VM::set1(-0.693359375f), xc);
  r = vfma(n, VM::set1(2.12194440e-4f), r);
  VM p = VM::set1(1.9875691500e-4f);
  p = vfma(p, r, VM::set1(1.3981999507e-3f));
  p = vfma(p, r, VM::set1(8.3334519073e-3f));
  p = vfma(p, r, VM::set1(4.1665795894e-2f));
  p = vfma(p, r, VM::set1(1.6666665459e-1f));
  p = vfma(p, r, VM::set1(5.0000001201e-1f));
  p = vfma(p, vmul(r, r), r) + VM::set1(1.0f);
  const VM n1 = vround(vmul(n, VM::set1(0.5f)));
  const VM n2 = vsub(n, n1);
  return vmul(vmul(p, pow2i(n1)), pow2i(n2));
}

/// 1 / (1 + e^-x): saturates to exactly 0 and 1, never NaN for non-NaN x.
VM sigmoid_body(VM x) noexcept {
  return vdiv(VM::set1(1.0f), VM::set1(1.0f) + exp_body(x.negate()));
}

/// tanh: an odd polynomial below |x| = 0.625, where 1 - 2/(e^2|x| + 1)
/// would cancel, and the exp form above it; the sign is restored last,
/// so tanh(-0) = -0 and tanh(+-Inf) = +-1.
VM tanh_body(VM x) noexcept {
  const VM a = vabs(x);
  const VM z = vmul(x, x);
  VM p = VM::set1(-5.70498872745e-3f);
  p = vfma(p, z, VM::set1(2.06390887954e-2f));
  p = vfma(p, z, VM::set1(-5.37397155531e-2f));
  p = vfma(p, z, VM::set1(1.33314422036e-1f));
  p = vfma(p, z, VM::set1(-3.33332819422e-1f));
  const VM small = vfma(vmul(p, z), a, a);
  const VM big = vsub(VM::set1(1.0f),
                      vdiv(VM::set1(2.0f), exp_body(a + a) + VM::set1(1.0f)));
  return vor_sign(vselect_lt(a, VM::set1(0.625f), small, big), x);
}

/// tanh-approximation GELU, 0.5 x (1 + tanh(u)) with
/// u = sqrt(2/pi) (x + 0.044715 x^3), in its equal sigmoid form
/// x / (1 + e^(-2u)): no 1 + tanh(u) cancellation for x << 0.
VM gelu_body(VM x) noexcept {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  const VM w = vfma(VM::set1(-2.0f * kSqrt2OverPi * 0.044715f), vmul(x, x),
                    VM::set1(-2.0f * kSqrt2OverPi));
  return vdiv(x, VM::set1(1.0f) + exp_body(vmul(x, w)));
}

/// dst[i] = body(src[i]) over [0, n); the tail runs the same body masked.
template <VM (*Body)(VM)>
void sweep(const float* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + kMathLanes <= n; i += kMathLanes) {
    Body(VM::loadu(src + i)).storeu(dst + i);
  }
  if (i < n) store_n(Body(load_n(src + i, n - i)), dst + i, n - i);
}

// ------------------------------------------------------------ softmax
/// Numerically-stable softmax of one contiguous column, in place.
void softmax_col(float* x, std::size_t n) {
  if (n == 0) return;
  std::size_t i = 0;
  float peak = x[0];
  if (n >= kMathLanes) {
    VM m = VM::loadu(x);
    for (i = kMathLanes; i + kMathLanes <= n; i += kMathLanes) {
      m = vmax(VM::loadu(x + i), m);
    }
    peak = hmax(m);
  }
  for (; i < n; ++i) peak = x[i] > peak ? x[i] : peak;

  const VM vpeak = VM::set1(peak);
  VM sum = VM::zero();
  for (i = 0; i + kMathLanes <= n; i += kMathLanes) {
    const VM e = exp_body(vsub(VM::loadu(x + i), vpeak));
    e.storeu(x + i);
    sum = sum + e;
  }
  const std::size_t rem = n - i;
  if (rem != 0) {
    const VM e = exp_body(vsub(load_n(x + i, rem), vpeak));
    store_n(e, x + i, rem);
    sum = sum + keep_n(e, rem);
  }
  const VM inv = VM::set1(1.0f / hsum(sum));
  for (i = 0; i + kMathLanes <= n; i += kMathLanes) {
    vmul(VM::loadu(x + i), inv).storeu(x + i);
  }
  if (rem != 0) store_n(vmul(load_n(x + i, rem), inv), x + i, rem);
}

// ------------------------------------------------------ attention head
/// Loads lanes [i, i + W) of a head column of d rows, masked at the end.
VM load_rows(const float* col, std::size_t i, std::size_t d) noexcept {
  return i + kMathLanes <= d ? VM::loadu(col + i) : load_n(col + i, d - i);
}

/// s[j] = scale * <q, k_j> for NK key columns at once: q's chunk is
/// loaded once per NK fused multiply-adds.
template <std::size_t NK>
void dots(const float* q, const float* const* k, std::size_t d, float scale,
          float* s) noexcept {
  VM acc[NK];
  for (std::size_t j = 0; j < NK; ++j) acc[j] = VM::zero();
  for (std::size_t i = 0; i < d; i += kMathLanes) {
    const VM qv = load_rows(q, i, d);
    for (std::size_t j = 0; j < NK; ++j) acc[j].fma(qv, load_rows(k[j], i, d));
  }
  for (std::size_t j = 0; j < NK; ++j) s[j] = hsum(acc[j]) * scale;
}

/// Rows [i0, i0 + rows) of out = sum_kt v[:, kt] * p[kt], with the
/// block's NV vectors held in registers across the whole key loop.
template <std::size_t NV>
void context_block(ConstMatrixView v, const float* p, std::size_t i0,
                   std::size_t rows, float* out) noexcept {
  VM acc[NV];
  for (std::size_t j = 0; j < NV; ++j) acc[j] = VM::zero();
  const std::size_t d = i0 + rows;
  for (std::size_t kt = 0; kt < v.cols(); ++kt) {
    const VM w = VM::set1(p[kt]);
    const float* vc = v.col(kt);
    for (std::size_t j = 0; j < NV; ++j) {
      acc[j].fma(w, load_rows(vc, i0 + j * kMathLanes, d));
    }
  }
  for (std::size_t j = 0; j < NV; ++j) {
    const std::size_t i = j * kMathLanes;
    if (i + kMathLanes <= rows) {
      acc[j].storeu(out + i);
    } else {
      store_n(acc[j], out + i, rows - i);
    }
  }
}

/// One attention head: scores(:, qt) = softmax(scale * K^T q_qt), then
/// context(:, qt) = V . scores(:, qt). q, k, v and context are
/// head_dim x t strided views (rows of the packed projections), read in
/// place; scores is t x t scratch, written one query column at a time
/// so each column's softmax and context run while it is in cache.
void attend_head(ConstMatrixView q, ConstMatrixView k, ConstMatrixView v,
                 float scale, MatrixView scores, MatrixView context) {
  constexpr std::size_t kKeys = 4;
  constexpr std::size_t kBlock = 4 * kMathLanes;  // context rows per pass
  const std::size_t d = q.rows();
  const std::size_t t = q.cols();
  for (std::size_t qt = 0; qt < t; ++qt) {
    const float* qc = q.col(qt);
    float* s = scores.col(qt);
    std::size_t kt = 0;
    for (; kt + kKeys <= t; kt += kKeys) {
      const float* kc[kKeys] = {k.col(kt), k.col(kt + 1), k.col(kt + 2),
                                k.col(kt + 3)};
      dots<kKeys>(qc, kc, d, scale, s + kt);
    }
    for (; kt < t; ++kt) {
      const float* kc[1] = {k.col(kt)};
      dots<1>(qc, kc, d, scale, s + kt);
    }
    softmax_col(s, t);

    float* out = context.col(qt);
    for (std::size_t i0 = 0; i0 < d; i0 += kBlock) {
      const std::size_t rows = std::min(kBlock, d - i0);
      switch ((rows + kMathLanes - 1) / kMathLanes) {
        case 1: context_block<1>(v, s, i0, rows, out + i0); break;
        case 2: context_block<2>(v, s, i0, rows, out + i0); break;
        case 3: context_block<3>(v, s, i0, rows, out + i0); break;
        default: context_block<4>(v, s, i0, rows, out + i0); break;
      }
    }
  }
}

/// This TU's MathKernels table, exported through its KernelPlane.
MathKernels math_table() noexcept {
  MathKernels t;
  t.exp = &sweep<exp_body>;
  t.gelu = &sweep<gelu_body>;
  t.sigmoid = &sweep<sigmoid_body>;
  t.tanh = &sweep<tanh_body>;
  t.softmax = &softmax_col;
  t.attend_head = &attend_head;
  return t;
}

}  // namespace

}  // namespace BIQ_KERNELS_NS
}  // namespace biq::engine
