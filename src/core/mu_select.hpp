// The paper's complexity model (Eqs. 6-10) and the LUT-unit selection
// rule derived from it: for output size m, pick mu minimizing
// (2^mu + m) / (m * mu) — the factor by which BiQGEMM's operation count
// relates to GEMM's (Eq. 9).
#pragma once

#include <cstddef>

namespace biq {

/// Eq. 9 relative-cost factor; lower is better (GEMM == 1.0).
[[nodiscard]] double biqgemm_cost_factor(std::size_t m, unsigned mu) noexcept;

/// argmin over mu in [1, max_mu] of the Eq. 9 factor.
[[nodiscard]] unsigned select_mu(std::size_t m, unsigned max_mu = 16) noexcept;

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
