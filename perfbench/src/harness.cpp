#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

std::size_t window_count(std::size_t n, std::size_t per) {
  return n < per ? 1 : n / per;
}

}  // namespace

double windowed_quantile(const std::vector<double>& v, std::size_t per,
                         double q) {
  if (v.empty()) return 0.0;
  const std::size_t windows = window_count(v.size(), per);
  const std::size_t len = v.size() < per ? v.size() : per;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(quantile(
        std::vector<double>(v.begin() + w * len, v.begin() + (w + 1) * len),
        q));
  }
  return median(per_window);
}

double windowed_ratio(const std::vector<double>& num,
                      const std::vector<double>& den, std::size_t per) {
  if (num.empty() || num.size() != den.size()) return 0.0;
  const std::size_t windows = window_count(num.size(), per);
  const std::size_t len = num.size() < per ? num.size() : per;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    double a = 0.0, b = 0.0;
    for (std::size_t i = w * len; i < (w + 1) * len; ++i) {
      a += num[i];
      b += den[i];
    }
    if (b > 0.0) per_window.push_back(a / b);
  }
  return median(per_window);
}

bool bitwise_equal(biq::ConstMatrixView a, biq::ConstMatrixView b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    if (std::memcmp(a.col(j), b.col(j), a.rows() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool checker_detects_flipped_bit(const biq::Matrix& ref) {
  if (ref.size() == 0) return false;
  biq::Matrix copy(ref.rows(), ref.cols());
  std::memcpy(copy.data(), ref.data(), ref.size() * sizeof(float));
  const std::size_t idx = ref.size() / 2;
  std::uint32_t bits = 0;
  std::memcpy(&bits, copy.data() + idx, sizeof(bits));
  bits ^= 1u;  // lowest mantissa bit: the smallest possible corruption
  std::memcpy(copy.data() + idx, &bits, sizeof(bits));
  return !bitwise_equal(copy.view(), ref.view());
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user, so the first eight sum to
  // the total.
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    t.total += field;
    if (i == 7) {
      t.steal = field;
      t.valid = true;
    }
  }
  return t;
}

double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  if (!a.valid || !b.valid || b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double reference_kernel_ms() {
  // A fixed 192x192x192 fp32 triple loop; inputs are deterministic and the
  // sink defeats dead-code elimination.
  constexpr std::size_t n = 192;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<float>(i % 7) * 0.25f - 0.5f;
    b[i] = static_cast<float>(i % 5) * 0.125f - 0.25f;
  }
  volatile float sink = 0.0f;
  const std::vector<double> samples = time_reps(
      [&] {
        std::fill(c.begin(), c.end(), 0.0f);
        for (std::size_t j = 0; j < n; ++j) {
          for (std::size_t k = 0; k < n; ++k) {
            const float bkj = b[j * n + k];
            for (std::size_t i = 0; i < n; ++i) {
              c[j * n + i] += a[k * n + i] * bkj;
            }
          }
        }
        sink = sink + c[n + 1];
      },
      15, 0.05);
  return median(samples) * 1e3;
}

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

const char* Tracer::intern(const std::string& name) {
  for (const auto& n : names_) {
    if (*n == name) return n->c_str();
  }
  names_.push_back(std::make_unique<std::string>(name));
  return names_.back()->c_str();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::open(const char* name, std::uint64_t request) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, 0, 0, parent, request});
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  spans_[id].start_ns = now_ns();
  return id;
}

void Tracer::close(int id) {
  spans_[id].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<Tracer::Total> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Total> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Total& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  std::vector<Total> out;
  for (auto& kv : by_name) out.push_back(kv.second);
  return out;
}

bool Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ",\n \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
         "\"request\"],\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "[\"" << s.name << "\", "
        << s.start_ns << ", " << s.end_ns << ", " << s.parent << ", "
        << s.request << "]";
  }
  out << "],\n \"summary\": {";
  bool first = true;
  char buf[160];
  for (const Total& t : totals()) {
    std::snprintf(buf, sizeof(buf),
                  "\"count\": %zu, \"total_ms\": %.6f, \"self_ms\": %.6f",
                  t.count, t.total_s * 1e3, t.self_s * 1e3);
    out << (first ? "\n  \"" : ",\n  \"") << t.name << "\": {" << buf << "}";
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
