// The paper's complexity model (Eqs. 6-10) and the LUT-unit rule an
// engine picks its mu by.
//
// Eq. 9 prices one built table entry like one lookup and ignores the bit
// planes: it minimizes (2^mu + m) / (m * mu), which gives mu 7 at 512
// rows and 8-9 at the paper's 1K-4K rows (the paper fixes 8). The
// engine's rule weighs both: per input column a layer of m rows and q
// bit planes builds 2^mu entries per table and makes m * q lookups per
// table, over n / mu tables, so it minimizes
//     (w * 2^mu + m * q) / mu,   mu in [4, 8],
// with w = kLutEntryCost, the cost of one built entry in lookups, fitted
// to held 1-thread plans of the encoder and LSTM shapes at mu 4-8 (timed
// interleaved, AVX-512): there the rule picks the measured best mu or one
// within 3% of it. Ties go to the larger mu. It picks mu 6 for 512 rows
// at 1 and 2 bits, 7 for 2048 rows at 1 bit and 8 for 2048 rows at 2
// bits or 4096 rows. It reads only the layer's shape, never the kernel
// plane, the threads or the batch: a layer's mu decides its bits.
#pragma once

#include <cstddef>

namespace biq {

/// Cost of building one LUT entry, in lookups (w of the rule above).
inline constexpr unsigned kLutEntryCost = 4;
/// The range the rule picks from.
inline constexpr unsigned kMinAutoMu = 4;
inline constexpr unsigned kMaxAutoMu = 8;

/// The rule's per-column cost (w * 2^mu + rows * bits) / mu; lower is
/// better.
[[nodiscard]] double lut_unit_cost(std::size_t rows, unsigned bits,
                                   unsigned mu) noexcept;

/// The LUT unit of an engine with `rows` output rows and `bits` planes
/// when BiqGemmOptions::mu is unset: argmin of lut_unit_cost over
/// [kMinAutoMu, kMaxAutoMu], ties to the larger mu. A nonzero
/// `group_size` (group-wise scales) admits only mu dividing it, so no
/// table straddles a scale group; when none in the range does, the
/// per-row pick, which an engine then rejects.
[[nodiscard]] unsigned select_lut_unit(std::size_t rows, unsigned bits,
                                       std::size_t group_size = 0) noexcept;

/// Eq. 9 relative-cost factor; lower is better (GEMM == 1.0).
[[nodiscard]] double biqgemm_cost_factor(std::size_t m, unsigned mu) noexcept;

/// argmin over mu in [1, max_mu] of the Eq. 9 factor (the paper's pick,
/// for comparison; engines use select_lut_unit).
[[nodiscard]] unsigned eq9_mu(std::size_t m, unsigned max_mu = 16) noexcept;

/// Eq. 6: LUT-construction operation count, Tc,dp ~ 2^mu * (n/mu) * b.
[[nodiscard]] double lut_build_ops(std::size_t n, std::size_t b,
                                   unsigned mu) noexcept;

/// GEMM-style construction count, Tc,mm ~ 2^mu * mu * (n/mu) * b.
[[nodiscard]] double lut_build_ops_mm(std::size_t n, std::size_t b,
                                      unsigned mu) noexcept;

/// Eq. 7 (scaled by bits): retrieval count Tr = m * ceil(n/mu) * b * bits.
[[nodiscard]] double lut_query_ops(std::size_t m, std::size_t n, std::size_t b,
                                   unsigned mu, unsigned bits = 1) noexcept;

/// Eq. 8: total model, build + query.
[[nodiscard]] double biqgemm_total_ops(std::size_t m, std::size_t n,
                                       std::size_t b, unsigned mu,
                                       unsigned bits = 1) noexcept;

/// Dense-GEMM operation count for the same product (bits-scaled).
[[nodiscard]] double gemm_total_ops(std::size_t m, std::size_t n, std::size_t b,
                                    unsigned bits = 1) noexcept;

}  // namespace biq
