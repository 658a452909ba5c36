#include "quant/alternating.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "quant/greedy.hpp"
#include "quant/row_panel.hpp"

namespace biq {
namespace {

/// Solves the bits x bits SPD-ish system G a = c in place by Gaussian
/// elimination with partial pivoting; falls back to leaving `a`
/// unchanged on (near-)singularity, which keeps the sweep monotone.
bool solve_small(std::vector<double>& g, std::vector<double>& c, unsigned n,
                 std::vector<double>& a) {
  std::vector<int> perm(n);
  for (unsigned i = 0; i < n; ++i) perm[i] = static_cast<int>(i);

  for (unsigned col = 0; col < n; ++col) {
    unsigned pivot = col;
    double best = std::fabs(g[col * n + col]);
    for (unsigned r = col + 1; r < n; ++r) {
      const double v = std::fabs(g[r * n + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) return false;
    if (pivot != col) {
      for (unsigned k = 0; k < n; ++k) std::swap(g[col * n + k], g[pivot * n + k]);
      std::swap(c[col], c[pivot]);
    }
    for (unsigned r = col + 1; r < n; ++r) {
      const double f = g[r * n + col] / g[col * n + col];
      for (unsigned k = col; k < n; ++k) g[r * n + k] -= f * g[col * n + k];
      c[r] -= f * c[col];
    }
  }
  for (int row = static_cast<int>(n) - 1; row >= 0; --row) {
    double acc = c[row];
    for (unsigned k = row + 1; k < n; ++k) acc -= g[row * n + k] * a[k];
    a[row] = acc / g[row * n + row];
  }
  return true;
}

struct Level {
  float value;
  unsigned combo;  // bit q set <=> s_q == +1
};

double row_mse(const float* w, std::size_t n, const BinaryCodes& codes,
               std::size_t row) {
  double err = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double recon = 0.0;
    for (unsigned q = 0; q < codes.bits; ++q) {
      recon += static_cast<double>(codes.alphas[q][row]) * codes.planes[q](row, j);
    }
    const double d = w[j] - recon;
    err += d * d;
  }
  return err;
}

}  // namespace

BinaryCodes quantize_alternating(const Matrix& w, unsigned bits,
                                 const AlternatingOptions& opt) {
  if (bits == 0 || bits > 8) {
    throw std::invalid_argument("quantize_alternating: bits must be in [1, 8]");
  }
  BinaryCodes codes = quantize_greedy(w, bits);
  const std::size_t n = w.cols();
  const unsigned combos = 1u << bits;

  std::vector<float> row_buf(n);
  std::vector<double> gram(static_cast<std::size_t>(bits) * bits);
  std::vector<double> rhs(bits);
  std::vector<double> alpha(bits);
  std::vector<Level> levels(combos);

  RowPanel panel(n);
  for (std::size_t i = 0; i < w.rows(); ++i) {
    if (i % kPanelRows == 0) panel.load(w, i);
    panel.copy_row(i % kPanelRows, row_buf.data());
    double prev = row_mse(row_buf.data(), n, codes, i);

    for (unsigned iter = 0; iter < opt.iterations; ++iter) {
      // (a) least-squares scales for the current planes.
      for (unsigned p = 0; p < bits; ++p) {
        for (unsigned q = p; q < bits; ++q) {
          long long dot = 0;
          const std::int8_t* bp = codes.planes[p].row(i);
          const std::int8_t* bq = codes.planes[q].row(i);
          for (std::size_t j = 0; j < n; ++j) {
            dot += static_cast<int>(bp[j]) * bq[j];
          }
          gram[p * bits + q] = static_cast<double>(dot);
          gram[q * bits + p] = static_cast<double>(dot);
        }
        double c = 0.0;
        const std::int8_t* bp = codes.planes[p].row(i);
        for (std::size_t j = 0; j < n; ++j) c += static_cast<double>(bp[j]) * row_buf[j];
        rhs[p] = c;
      }
      for (unsigned q = 0; q < bits; ++q) alpha[q] = codes.alphas[q][i];
      if (solve_small(gram, rhs, bits, alpha)) {
        for (unsigned q = 0; q < bits; ++q) {
          codes.alphas[q][i] = static_cast<float>(alpha[q]);
        }
      }

      // (b) optimal planes given scales: nearest reconstruction level.
      for (unsigned combo = 0; combo < combos; ++combo) {
        float v = 0.0f;
        for (unsigned q = 0; q < bits; ++q) {
          v += ((combo >> q) & 1u) != 0 ? codes.alphas[q][i] : -codes.alphas[q][i];
        }
        levels[combo] = {v, combo};
      }
      std::sort(levels.begin(), levels.end(),
                [](const Level& a, const Level& b) { return a.value < b.value; });
      for (std::size_t j = 0; j < n; ++j) {
        const float target = row_buf[j];
        // Lower-bound binary search, then compare with the left neighbor.
        std::size_t lo = 0, hi = combos;
        while (lo < hi) {
          const std::size_t mid = (lo + hi) / 2;
          if (levels[mid].value < target) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        std::size_t pick = std::min<std::size_t>(lo, combos - 1);
        if (pick > 0 && std::fabs(levels[pick - 1].value - target) <=
                            std::fabs(levels[pick].value - target)) {
          pick = pick - 1;
        }
        const unsigned combo = levels[pick].combo;
        for (unsigned q = 0; q < bits; ++q) {
          codes.planes[q](i, j) =
              ((combo >> q) & 1u) != 0 ? std::int8_t{1} : std::int8_t{-1};
        }
      }

      const double now = row_mse(row_buf.data(), n, codes, i);
      if (prev - now <= opt.tolerance * std::max(prev, 1e-30)) break;
      prev = now;
    }
  }
  return codes;
}

}  // namespace biq
