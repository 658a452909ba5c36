#include "core/mu_select.hpp"

#include <cmath>

namespace biq {

double lut_unit_cost(std::size_t rows, unsigned bits, unsigned mu) noexcept {
  if (mu == 0) return 0.0;
  return (std::ldexp(double{kLutEntryCost}, static_cast<int>(mu)) +
          static_cast<double>(rows) * bits) /
         mu;
}

unsigned select_lut_unit(std::size_t rows, unsigned bits,
                         std::size_t group_size) noexcept {
  const auto fits = [group_size](unsigned mu) {
    return group_size == 0 || group_size % mu == 0;
  };
  unsigned best = 0;
  for (unsigned mu = kMaxAutoMu; mu >= kMinAutoMu; --mu) {
    if (fits(mu) && (best == 0 || lut_unit_cost(rows, bits, mu) <
                                      lut_unit_cost(rows, bits, best))) {
      best = mu;
    }
  }
  return best != 0 ? best : select_lut_unit(rows, bits);
}

double biqgemm_cost_factor(std::size_t m, unsigned mu) noexcept {
  if (m == 0 || mu == 0) return 1.0;
  const double pow2 = std::ldexp(1.0, static_cast<int>(mu));
  return (pow2 + static_cast<double>(m)) /
         (static_cast<double>(m) * static_cast<double>(mu));
}

unsigned eq9_mu(std::size_t m, unsigned max_mu) noexcept {
  if (max_mu == 0) return 1;
  unsigned best = 1;
  double best_cost = biqgemm_cost_factor(m, 1);
  for (unsigned mu = 2; mu <= max_mu; ++mu) {
    const double cost = biqgemm_cost_factor(m, mu);
    if (cost < best_cost) {
      best_cost = cost;
      best = mu;
    }
  }
  return best;
}

double lut_build_ops(std::size_t n, std::size_t b, unsigned mu) noexcept {
  if (mu == 0) return 0.0;
  const double tables = std::ceil(static_cast<double>(n) / mu);
  const double per_table = std::ldexp(1.0, static_cast<int>(mu)) + mu - 1;
  return per_table * tables * static_cast<double>(b);
}

double lut_build_ops_mm(std::size_t n, std::size_t b, unsigned mu) noexcept {
  if (mu == 0) return 0.0;
  const double tables = std::ceil(static_cast<double>(n) / mu);
  const double per_table = std::ldexp(1.0, static_cast<int>(mu)) * mu;
  return per_table * tables * static_cast<double>(b);
}

double lut_query_ops(std::size_t m, std::size_t n, std::size_t b, unsigned mu,
                     unsigned bits) noexcept {
  if (mu == 0) return 0.0;
  const double tables = std::ceil(static_cast<double>(n) / mu);
  return static_cast<double>(m) * tables * static_cast<double>(b) * bits;
}

double biqgemm_total_ops(std::size_t m, std::size_t n, std::size_t b,
                         unsigned mu, unsigned bits) noexcept {
  return lut_build_ops(n, b, mu) + lut_query_ops(m, n, b, mu, bits);
}

double gemm_total_ops(std::size_t m, std::size_t n, std::size_t b,
                      unsigned bits) noexcept {
  return static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(b) * bits;
}

}  // namespace biq
