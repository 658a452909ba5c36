// Generic source of the grouped-LUT (tmac-lut) lookup-accumulate
// kernel, compiled once per ISA exactly like biq_kernels_impl.hpp.
// Include this in the same per-ISA TU with the same BIQ_KERNELS_NS.
//
// One call sweeps one packed weight tile (kTmacTileRows = 32 output
// rows) over one batch column's tables: for each activation group the
// tile stores 16 bytes of nibble codes (byte k = row k's nibble low,
// row k+16's nibble high), and the column's table for that group is 16
// int16 entries in split byte planes (16 low bytes, then 16 high
// bytes). The AVX2 body looks entries up in-register: both byte planes
// are broadcast to a ymm, _mm256_shuffle_epi8 gathers 32 rows' low and
// high bytes at once, and an unpack re-interleaves them into int16.
//
// Accumulation contract (identical arithmetic on every plane, so the
// planes are bitwise interchangeable): per-row int16 partial sums via
// SATURATING adds (_mm256_adds_epi16 / scalar clamp) over chunks of
// kTmacChunkGroups groups, each chunk then sign-extended and added
// into int32 row totals. Table entries are bounded by |entry| <=
// 2 codes * 2 * 127 = 508 (2-bit) or 1 code * 8 * 127 = 1016 (4-bit),
// so a 16-group chunk is bounded by 16256 < 32767 — within a chunk the
// saturating add can never actually clip, which is what makes the
// int16 fast path exact.
//
// The AVX-512 TU compiles this header with __AVX2__ defined and reuses
// the 256-bit body under EVEX encoding: widening the 16-entry table
// lookup to 512 bits needs VPSHUFB on zmm, an AVX-512BW instruction
// the library's -mavx512f plane does not assume.

#ifndef BIQ_KERNELS_NS
#error "tmac_kernels_impl.hpp must be included with BIQ_KERNELS_NS defined"
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "engine/dispatch.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace biq::engine {
namespace BIQ_KERNELS_NS {
namespace {

/// Groups per int16 chunk. 16 * max|entry| = 16256 < 32767, so int16
/// partial sums cannot overflow (nor saturate) within a chunk.
constexpr std::size_t kTmacChunkGroups = 16;

#if defined(__AVX2__)

void tmac_accumulate_tile(const TmacTileArgs& a) {
  const __m128i nib_mask = _mm_set1_epi8(0x0F);
  __m256i acc_0 = _mm256_setzero_si256();  // rows 0-7
  __m256i acc_1 = _mm256_setzero_si256();  // rows 8-15
  __m256i acc_2 = _mm256_setzero_si256();  // rows 16-23
  __m256i acc_3 = _mm256_setzero_si256();  // rows 24-31
  for (std::size_t g0 = 0; g0 < a.ngroups; g0 += kTmacChunkGroups) {
    const std::size_t g1 = std::min(a.ngroups, g0 + kTmacChunkGroups);
    __m256i s0 = _mm256_setzero_si256();  // int16 rows 0-7 | 16-23
    __m256i s1 = _mm256_setzero_si256();  // int16 rows 8-15 | 24-31
    for (std::size_t g = g0; g < g1; ++g) {
      const __m128i wb = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(a.wtile + g * 16));
      const __m128i ilo = _mm_and_si128(wb, nib_mask);
      const __m128i ihi = _mm_and_si128(_mm_srli_epi16(wb, 4), nib_mask);
      // Lane 0 indexes rows 0-15 (low nibbles), lane 1 rows 16-31.
      const __m256i idx = _mm256_set_m128i(ihi, ilo);
      const __m256i tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(a.lut + g * 32)));
      const __m256i thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(a.lut + g * 32 + 16)));
      const __m256i blo = _mm256_shuffle_epi8(tlo, idx);
      const __m256i bhi = _mm256_shuffle_epi8(thi, idx);
      s0 = _mm256_adds_epi16(s0, _mm256_unpacklo_epi8(blo, bhi));
      s1 = _mm256_adds_epi16(s1, _mm256_unpackhi_epi8(blo, bhi));
    }
    acc_0 = _mm256_add_epi32(
        acc_0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s0)));
    acc_2 = _mm256_add_epi32(
        acc_2, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s0, 1)));
    acc_1 = _mm256_add_epi32(
        acc_1, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s1)));
    acc_3 = _mm256_add_epi32(
        acc_3, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s1, 1)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.acc + 0), acc_0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.acc + 8), acc_1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.acc + 16), acc_2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.acc + 24), acc_3);
}

#else  // portable plane

std::int16_t tmac_sat_add16(std::int16_t x, std::int16_t y) noexcept {
  const int v = static_cast<int>(x) + static_cast<int>(y);
  return static_cast<std::int16_t>(std::clamp(v, -32768, 32767));
}

void tmac_accumulate_tile(const TmacTileArgs& a) {
  std::int32_t acc[kTmacTileRows] = {};
  for (std::size_t g0 = 0; g0 < a.ngroups; g0 += kTmacChunkGroups) {
    const std::size_t g1 = std::min(a.ngroups, g0 + kTmacChunkGroups);
    std::int16_t s[kTmacTileRows] = {};
    for (std::size_t g = g0; g < g1; ++g) {
      const std::uint8_t* wb = a.wtile + g * 16;
      const std::uint8_t* lo = a.lut + g * 32;
      const std::uint8_t* hi = lo + 16;
      for (std::size_t k = 0; k < 16; ++k) {
        const std::size_t vlo = wb[k] & 0x0F;
        const std::size_t vhi = wb[k] >> 4;
        const auto elo = static_cast<std::int16_t>(
            static_cast<std::uint16_t>(lo[vlo]) |
            (static_cast<std::uint16_t>(hi[vlo]) << 8));
        const auto ehi = static_cast<std::int16_t>(
            static_cast<std::uint16_t>(lo[vhi]) |
            (static_cast<std::uint16_t>(hi[vhi]) << 8));
        s[k] = tmac_sat_add16(s[k], elo);
        s[16 + k] = tmac_sat_add16(s[16 + k], ehi);
      }
    }
    for (std::size_t k = 0; k < kTmacTileRows; ++k) {
      acc[k] += static_cast<std::int32_t>(s[k]);
    }
  }
  for (std::size_t k = 0; k < kTmacTileRows; ++k) a.acc[k] = acc[k];
}

#endif  // __AVX2__

/// This TU's TmacKernels table, exported through its KernelPlane.
TmacKernels tmac_table() noexcept {
  TmacKernels t;
  t.accumulate_tile = &tmac_accumulate_tile;
  return t;
}

}  // namespace

}  // namespace BIQ_KERNELS_NS
}  // namespace biq::engine
