// Set-up path parity: the panel quantizers, the shift-or key packer and
// the blocked dequantize must reproduce, byte for byte, the
// straightforward code they replaced. Test-local copies of that code
// (one row at a time, one weight at a time) are the oracles; the shapes
// are odd on purpose: row counts that are not a multiple of the panel
// height, widths that are not a multiple of mu, and weights that
// include +0.0 and -0.0 (both code as +1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/key_matrix.hpp"
#include "quant/greedy.hpp"
#include "quant/grouped.hpp"
#include "quant/row_panel.hpp"

namespace biq {
namespace {

// ------------------------------------------------------------- oracles

void greedy_row_oracle(std::vector<float> residual, unsigned bits,
                       std::vector<BinaryMatrix>& planes,
                       std::vector<std::vector<float>>& alphas,
                       std::size_t row, std::size_t j0, std::size_t alpha_at) {
  for (unsigned q = 0; q < bits; ++q) {
    double mag = 0.0;
    for (float v : residual) mag += std::fabs(v);
    const float a =
        static_cast<float>(mag / static_cast<double>(residual.size()));
    alphas[q][alpha_at] = a;
    for (std::size_t j = 0; j < residual.size(); ++j) {
      const std::int8_t s =
          residual[j] < 0.0f ? std::int8_t{-1} : std::int8_t{1};
      planes[q](row, j0 + j) = s;
      residual[j] -= a * static_cast<float>(s);
    }
  }
}

BinaryCodes greedy_oracle(const Matrix& w, unsigned bits) {
  BinaryCodes out;
  out.rows = w.rows();
  out.cols = w.cols();
  out.bits = bits;
  out.alphas.assign(bits, std::vector<float>(w.rows(), 0.0f));
  for (unsigned q = 0; q < bits; ++q) out.planes.emplace_back(w.rows(), w.cols());
  for (std::size_t i = 0; i < w.rows(); ++i) {
    std::vector<float> row(w.cols());
    for (std::size_t j = 0; j < w.cols(); ++j) row[j] = w(i, j);
    greedy_row_oracle(row, bits, out.planes, out.alphas, i, 0, i);
  }
  return out;
}

GroupedBinaryCodes grouped_oracle(const Matrix& w, unsigned bits,
                                  std::size_t group_size) {
  GroupedBinaryCodes out;
  out.rows = w.rows();
  out.cols = w.cols();
  out.bits = bits;
  out.group_size = group_size;
  out.num_groups = (w.cols() + group_size - 1) / group_size;
  for (unsigned q = 0; q < bits; ++q) out.planes.emplace_back(w.rows(), w.cols());
  out.alphas.assign(bits, std::vector<float>(w.rows() * out.num_groups, 0.0f));
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t g = 0; g < out.num_groups; ++g) {
      const std::size_t j0 = g * group_size;
      const std::size_t j1 = std::min(w.cols(), j0 + group_size);
      std::vector<float> seg;
      for (std::size_t j = j0; j < j1; ++j) seg.push_back(w(i, j));
      greedy_row_oracle(seg, bits, out.planes, out.alphas, i, j0,
                        i * out.num_groups + g);
    }
  }
  return out;
}

unsigned key_oracle(const BinaryMatrix& b, unsigned mu, std::size_t row,
                    std::size_t table) {
  const std::size_t base = table * mu;
  const std::size_t len = std::min<std::size_t>(mu, b.cols() - base);
  unsigned key = 0;
  for (std::size_t j = 0; j < len; ++j) {
    if (b(row, base + j) > 0) key |= 1u << (mu - 1 - j);
  }
  return key;
}

/// The dense reconstruction, summed in plane order for each element.
template <typename AlphaAt>
Matrix dequantize_oracle(std::size_t rows, std::size_t cols, unsigned bits,
                         const std::vector<BinaryMatrix>& planes,
                         AlphaAt alpha) {
  Matrix w(rows, cols, /*zero_fill=*/true);
  for (unsigned q = 0; q < bits; ++q) {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        w(i, j) += alpha(q, i, j) * static_cast<float>(planes[q](i, j));
      }
    }
  }
  return w;
}

Matrix dequantize_oracle(const BinaryCodes& c) {
  return dequantize_oracle(
      c.rows, c.cols, c.bits, c.planes,
      [&](unsigned q, std::size_t i, std::size_t) { return c.alphas[q][i]; });
}

// ------------------------------------------------------------- helpers

/// Normal weights with +0.0 and -0.0 sprinkled in, one column in every
/// row exactly zero so every panel sees both zeros.
Matrix weights_with_signed_zeros(std::size_t m, std::size_t n,
                                 std::uint64_t seed) {
  Rng rng(seed);
  Matrix w = Matrix::random_normal(m, n, rng, 0.0f, 0.5f);
  for (std::size_t i = 0; i < m; ++i) {
    w(i, (i * 7) % n) = (i % 2 == 0) ? -0.0f : 0.0f;
  }
  return w;
}

bool same_bytes(const BinaryMatrix& a, const BinaryMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.row(0), b.row(0), a.rows() * a.cols()) == 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Around and across the panel height (kPanelRows = 16).
const std::size_t kRows[] = {1, 15, 16, 17, 37};
const std::size_t kCols[] = {1, 3, 11, 24, 67};

// --------------------------------------------------------------- tests

TEST(SetupParity, GreedyMatchesTheRowLoop) {
  for (std::size_t m : kRows) {
    for (std::size_t n : kCols) {
      const Matrix w = weights_with_signed_zeros(m, n, 100 + m * 7 + n);
      for (unsigned bits = 1; bits <= 4; ++bits) {
        const BinaryCodes got = quantize_greedy(w, bits);
        const BinaryCodes want = greedy_oracle(w, bits);
        for (unsigned q = 0; q < bits; ++q) {
          EXPECT_TRUE(same_bytes(got.planes[q], want.planes[q]))
              << m << "x" << n << " bits " << bits << " plane " << q;
          EXPECT_TRUE(same_bits(got.alphas[q], want.alphas[q]))
              << m << "x" << n << " bits " << bits << " plane " << q;
        }
      }
    }
  }
}

TEST(SetupParity, GroupedMatchesTheSegmentLoop) {
  for (std::size_t m : kRows) {
    for (std::size_t n : kCols) {
      const Matrix w = weights_with_signed_zeros(m, n, 200 + m * 7 + n);
      for (std::size_t group : {1u, 3u, 8u, 16u, 70u}) {
        for (unsigned bits = 1; bits <= 4; ++bits) {
          const GroupedBinaryCodes got = quantize_greedy_grouped(w, bits, group);
          const GroupedBinaryCodes want = grouped_oracle(w, bits, group);
          ASSERT_EQ(got.num_groups, want.num_groups);
          for (unsigned q = 0; q < bits; ++q) {
            EXPECT_TRUE(same_bytes(got.planes[q], want.planes[q]))
                << m << "x" << n << " group " << group << " bits " << bits;
            EXPECT_TRUE(same_bits(got.alphas[q], want.alphas[q]))
                << m << "x" << n << " group " << group << " bits " << bits;
          }
          const Matrix want_dense = dequantize_oracle(
              want.rows, want.cols, want.bits, want.planes,
              [&](unsigned q, std::size_t i, std::size_t j) {
                return want.alpha(q, i, j / group);
              });
          EXPECT_TRUE(same_bits(got.dequantize(), want_dense))
              << m << "x" << n << " group " << group << " bits " << bits;
        }
      }
    }
  }
}

TEST(SetupParity, SignedZerosCodeAsPlusOne) {
  Matrix w(kPanelRows + 3, 5);
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      w(i, j) = (i + j) % 2 == 0 ? 0.0f : -0.0f;
    }
  }
  const BinaryCodes codes = quantize_greedy(w, 3);
  for (unsigned q = 0; q < 3; ++q) {
    for (std::size_t i = 0; i < w.rows(); ++i) {
      EXPECT_EQ(codes.alphas[q][i], 0.0f);
      for (std::size_t j = 0; j < w.cols(); ++j) {
        EXPECT_EQ(codes.planes[q](i, j), 1) << q << " " << i << " " << j;
      }
    }
  }
  const GroupedBinaryCodes grouped = quantize_greedy_grouped(w, 2, 2);
  for (unsigned q = 0; q < 2; ++q) {
    for (std::size_t i = 0; i < w.rows(); ++i) {
      for (std::size_t j = 0; j < w.cols(); ++j) {
        EXPECT_EQ(grouped.planes[q](i, j), 1) << q << " " << i << " " << j;
      }
    }
  }
}

TEST(SetupParity, KeysMatchTheBitByBitPacker) {
  for (std::size_t m : {1u, 17u}) {
    for (std::size_t n : {1u, 3u, 8u, 11u, 24u, 67u}) {
      const BinaryCodes codes =
          quantize_greedy(weights_with_signed_zeros(m, n, 300 + m + n), 1);
      const BinaryMatrix& b = codes.planes[0];
      for (unsigned mu : {1u, 3u, 8u, 11u, 16u}) {
        const KeyMatrix keys(b, mu);
        ASSERT_EQ(keys.tables(), table_count(n, mu));
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t t = 0; t < keys.tables(); ++t) {
            EXPECT_EQ(keys.key(i, t), key_oracle(b, mu, i, t))
                << m << "x" << n << " mu " << mu << " row " << i
                << " table " << t;
          }
        }
      }
    }
  }
}

TEST(SetupParity, DequantizeMatchesTheElementLoop) {
  for (std::size_t m : kRows) {
    for (std::size_t n : kCols) {
      const Matrix w = weights_with_signed_zeros(m, n, 400 + m * 7 + n);
      for (unsigned bits = 1; bits <= 4; ++bits) {
        const BinaryCodes codes = quantize_greedy(w, bits);
        EXPECT_TRUE(same_bits(codes.dequantize(), dequantize_oracle(codes)))
            << m << "x" << n << " bits " << bits;
      }
    }
  }
}

}  // namespace
}  // namespace biq
