#include "core/lut_builder.hpp"

#include <cassert>

#include "engine/dispatch.hpp"

namespace biq {
namespace {

inline float padded(const float* x, std::size_t len, std::size_t j) noexcept {
  return j < len ? x[j] : 0.0f;
}

}  // namespace

void build_lut_dp(const float* x, std::size_t len, unsigned mu, float* lut) {
  assert(mu >= 1 && mu <= 16 && len <= mu);
  const std::size_t half = std::size_t{1} << (mu - 1);
  const std::size_t full = half << 1;

  float sum = 0.0f;
  for (std::size_t j = 0; j < len; ++j) sum += x[j];
  lut[0] = -sum;

  for (unsigned s = 1; s < mu; ++s) {
    const std::size_t base = std::size_t{1} << (s - 1);
    const float twice = 2.0f * padded(x, len, mu - s);
    for (std::size_t j = 0; j < base; ++j) lut[base + j] = lut[j] + twice;
  }
  for (std::size_t k = half; k < full; ++k) lut[k] = -lut[full - 1 - k];
}

void build_lut_mm(const float* x, std::size_t len, unsigned mu, float* lut) {
  assert(mu >= 1 && mu <= 16 && len <= mu);
  const std::size_t full = std::size_t{1} << mu;
  for (std::size_t k = 0; k < full; ++k) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < len; ++j) {
      const bool plus = ((k >> (mu - 1 - j)) & 1u) != 0;
      acc += plus ? x[j] : -x[j];
    }
    lut[k] = acc;
  }
}

// The interleaved builders are the kernel hot path: their bodies live in
// engine/biq_kernels_impl.hpp, compiled once per ISA plane, and these
// entry points route through the runtime-dispatched table. Callers on
// the hot path (BiqGemm) hold the table directly; these wrappers keep
// the documented public contract for tests and ablations.
void build_lut_dp_interleaved(const float* xt, unsigned mu, float* lut) {
  assert(mu >= 1 && mu <= 16);
  engine::select_kernels(KernelIsa::kAuto).build_dp(xt, mu, lut);
}

void build_lut_mm_interleaved(const float* xt, unsigned mu, float* lut) {
  assert(mu >= 1 && mu <= 16);
  engine::select_kernels(KernelIsa::kAuto).build_mm(xt, mu, lut);
}

}  // namespace biq
