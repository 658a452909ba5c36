// Popcount for the xnor baseline's bit-plane dot products. The vector
// kernels live in the per-ISA translation units under src/engine/ and are
// selected at runtime via engine/dispatch.hpp.
#pragma once

#include <cstdint>

namespace biq::simd {

[[nodiscard]] inline int popcount64(std::uint64_t x) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(x);
#else
  int c = 0;
  while (x != 0) {
    x &= x - 1;
    ++c;
  }
  return c;
#endif
}

}  // namespace biq::simd
