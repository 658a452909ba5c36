// Lookup-table construction (paper Sec. III-B, Fig. 4). For a sub-vector
// x of length mu, the table q holds q[k] = dot(M_mu[k], x) for all 2^mu
// sign patterns k, where M_mu[k][j] = +1 iff bit (mu-1-j) of k is set
// (MSB = first element, matching the key packing).
//
// Two builders:
//  * DP (Algorithm 1 / Fig. 4b): q[0] = -sum(x); stage s in [1, mu)
//    fills q[2^(s-1) + j] = q[j] + 2*x[mu-s]; the upper half follows by
//    the symmetry q[k] = -q[2^mu-1-k]. ~2^mu adds total.
//    (The paper's Algorithm-1 pseudo-code indexes x with an off-by-one;
//    Fig. 4b, against which the algorithm lines are annotated, gives the
//    recurrence implemented here — validated exhaustively in tests.)
//  * MM (Fig. 4a): brute-force M_mu . x, 2^mu * mu MACs. Kept as the
//    comparison point for the Tc,dp vs Tc,mm ablation and as the test
//    oracle.
//
// Interleaved variants build one table per batch column for a whole
// batch tile at once, with entry layout lut[key*lanes + lane] (paper
// Fig. 6), which the query loop reads with full-width vector loads. They
// are kernel hot loops, so they live on each kernel plane
// (engine::BiqKernels::build_dp / build_mm): xt is a row-major
// [mu x lanes] block, lut receives 2^mu * lanes floats, and the tile
// width `lanes` is the plane's query width (8 lanes, 16 on the AVX-512
// plane); narrower batches are zero-padded to it.
#pragma once

#include <cstddef>

namespace biq {

/// q[k] = dot(M_mu[k], x[0..len)) with x zero-padded to mu. lut must hold
/// 2^mu floats. len <= mu, mu in [1, 16].
void build_lut_dp(const float* x, std::size_t len, unsigned mu, float* lut);

/// Brute-force oracle, identical contract.
void build_lut_mm(const float* x, std::size_t len, unsigned mu, float* lut);

/// Exact add/negate counts of the DP scheme (Eq. 6 cost model inputs).
[[nodiscard]] constexpr std::size_t dp_build_adds(unsigned mu) noexcept {
  // mu-1 adds for q[0] (mu terms), 2^(mu-1)-1 adds for the stages,
  // 2^(mu-1) negations for the mirrored half.
  return (mu - 1) + ((std::size_t{1} << (mu - 1)) - 1) +
         (std::size_t{1} << (mu - 1));
}

[[nodiscard]] constexpr std::size_t mm_build_macs(unsigned mu) noexcept {
  return (std::size_t{1} << mu) * mu;
}

}  // namespace biq
