// Wall-clock stopwatch for the benchmarks and the int8 engine's
// multiply-vs-dequantize split (Int8Gemm::run_profiled).
#pragma once

#include <chrono>

namespace biq {

/// Monotonic stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_us() const noexcept {
    return elapsed_seconds() * 1e6;
  }

  [[nodiscard]] double elapsed_ms() const noexcept {
    return elapsed_seconds() * 1e3;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace biq
