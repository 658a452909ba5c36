// Shared plumbing of the perfbench binary: command-line options, the
// result record printed as the last stdout line, order statistics, the
// bitwise output check, host-noise probes and the in-memory span tracer.
// Everything here sits outside the library: the benchmark reaches the
// program only through its public headers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "matrix/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// One reported metric. `samples` is how many observations the value
/// summarizes (printed in the human-readable table, not in the JSON).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What one run reports: the contract's four keys plus diagnostics that
/// are printed on their own line before the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void diag(std::string name, double value, std::string unit,
            std::size_t samples = 1) {
    diagnostics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Counts one request: attempted always, failed unless `ok`.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty input.
/// Interpolation keeps percentiles continuous in the samples, so they do
/// not move in whole steps between runs.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Median, over consecutive windows of `per` samples, of each window's
/// q-quantile; a trailing partial window is dropped (all samples form one
/// window when there are fewer than `per`). A burst of host noise then
/// moves a few windows, not the reported value.
[[nodiscard]] double windowed_quantile(const std::vector<double>& v,
                                       std::size_t per, double q);
/// The same windows over paired samples: median of sum(num) / sum(den).
[[nodiscard]] double windowed_ratio(const std::vector<double>& num,
                                    const std::vector<double>& den,
                                    std::size_t per);

/// Bitwise equality of two same-shape views (the program's outputs are
/// contracted to be bit-exact, so no tolerance is involved).
[[nodiscard]] bool bitwise_equal(biq::ConstMatrixView a,
                                 biq::ConstMatrixView b);

/// The checker's self-test: flips one bit of a copy of `ref` and returns
/// true when bitwise_equal reports the copy as different.
[[nodiscard]] bool checker_detects_flipped_bit(const biq::Matrix& ref);

/// Wall seconds of each of at least `min_reps` calls of fn, continuing
/// until `min_seconds` have accumulated.
template <typename Fn>
std::vector<double> time_reps(Fn&& fn, std::size_t min_reps,
                              double min_seconds) {
  std::vector<double> out;
  double total = 0.0;
  while (out.size() < min_reps || total < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    const double dt = seconds_between(t0, Clock::now());
    out.push_back(dt);
    total += dt;
  }
  return out;
}

/// Host-noise probes. steal_frac is the share of all CPU time the
/// hypervisor gave to other guests between two /proc/stat readings; the
/// reference kernel is a fixed fp32 loop compiled into this binary, so
/// its time moves only with the host, never with the library.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  bool valid = false;
};
[[nodiscard]] CpuTimes read_cpu_times();
[[nodiscard]] double steal_frac(const CpuTimes& a, const CpuTimes& b);
[[nodiscard]] double reference_kernel_ms();

/// Spans recorded around calls into the library's public functions. Kept
/// in memory and written once at exit; a span's self time is its length
/// minus the time its child spans cover. Single-threaded: only the
/// benchmark's own driving thread opens spans.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans(), -1 for a root
    std::uint64_t request;
  };

  Tracer();

  /// Returns a name pointer that stays valid for the tracer's lifetime.
  const char* intern(const std::string& name);

  int open(const char* name, std::uint64_t request);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes every span plus a per-name count/total/self summary as JSON.
  /// Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

  /// Per-name totals: {name, count, total seconds, self seconds}.
  struct Total {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<Total> totals() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::unique_ptr<std::string>> names_;
  Clock::time_point epoch_;
};

/// RAII span; a null tracer makes it a no-op (the untraced arm).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
