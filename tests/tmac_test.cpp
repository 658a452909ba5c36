// The grouped-LUT (tmac-lut) engine's own conformance suite, beyond
// what the registry-wide tests already parameterize over it:
//   * packer round-trips at every supported bit width, including
//     all-zero rows, saturation extremes, rows not divisible by the
//     codes-per-nibble group size and ragged row tiles,
//   * the per-column table builder against a naive decode,
//   * bitwise agreement with a plain int32 reference (the int16
//     saturating chunks are exact by construction — this pins it),
//   * bitwise identity across compiled ISA planes (scalar / AVX2 /
//     AVX-512) and 1-vs-N threads on both packing layouts, with a ragged
//     last row tile and a LayerNorm epilogue whose columns finish
//     across (column, row-tile range) items,
//   * zero heap allocations on warm plan->run for 2-bit and 4-bit
//     paths, pinned by a binary-wide instrumented operator new,
//   * the nn::LinearLayer / make_linear_engine integration path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_tmac.hpp"
#include "nn/linear.hpp"
#include "quant/lowbit.hpp"

// Binary-wide instrumented operator new (same pattern as
// exec_context_test): counts every scalar/array heap allocation so the
// warm-plan zero-allocation guarantee can be asserted directly.
namespace {
std::atomic<std::size_t> g_new_calls{0};

void* counted_alloc(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace biq {
namespace {

void expect_bitwise(ConstMatrixView a, ConstMatrixView b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, c), b(i, c))
          << what << " differs at (" << i << ", " << c << ")";
    }
  }
}

// ------------------------------------------------------------ quantizer

TEST(LowBitQuantize, RejectsUnsupportedBits) {
  Rng rng(1);
  const Matrix w = Matrix::random_normal(4, 4, rng);
  EXPECT_THROW((void)quantize_lowbit(w, 0), std::invalid_argument);
  EXPECT_THROW((void)quantize_lowbit(w, 5), std::invalid_argument);
  EXPECT_THROW((void)TmacLutGemm(w, 8), std::invalid_argument);
}

TEST(LowBitQuantize, ErrorShrinksWithBits) {
  Rng rng(2);
  const Matrix w = Matrix::random_normal(48, 64, rng);
  double prev = 1.0;
  for (unsigned bits : {1u, 2u, 3u, 4u}) {
    const double err = rel_fro_error(quantize_lowbit(w, bits).dequantize(), w);
    EXPECT_LT(err, prev) << "bits=" << bits;
    prev = err;
  }
  EXPECT_LT(prev, 0.12);  // 4-bit per-row symmetric on gaussian weights
}

TEST(LowBitQuantize, CodesStayInTwosComplementRange) {
  Rng rng(3);
  const Matrix w = Matrix::random_normal(20, 30, rng);
  for (unsigned bits : {2u, 3u, 4u}) {
    const LowBitQuantized q = quantize_lowbit(w, bits);
    const int lo = -(1 << (bits - 1)), hi = (1 << (bits - 1)) - 1;
    for (const std::int8_t c : q.codes) {
      EXPECT_GE(c, lo);
      EXPECT_LE(c, hi);
    }
  }
}

// --------------------------------------------------------------- packer

void expect_round_trip(const LowBitQuantized& q, const char* what) {
  const TmacPacked p = pack_tmac(q);
  EXPECT_EQ(p.storage_bits, q.storage_bits);
  for (std::size_t i = 0; i < q.rows; ++i) {
    for (std::size_t k = 0; k < q.cols; ++k) {
      ASSERT_EQ(p.code_at(i, k), static_cast<int>(q.codes[i * q.cols + k]))
          << what << " at (" << i << ", " << k << ")";
    }
  }
}

TEST(TmacPacker, RoundTripsEveryBitWidthAndRaggedShape) {
  Rng rng(4);
  // Rows not a multiple of the 32-row tile; cols odd, so the 2-bit
  // layout (2 codes per nibble) has a ragged final group.
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{37, 29},
                            {64, 33},
                            {1, 1},
                            {33, 2}}) {
    const Matrix w = Matrix::random_normal(m, n, rng);
    for (unsigned bits : {1u, 2u, 3u, 4u}) {
      expect_round_trip(quantize_lowbit(w, bits),
                        ("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                         " bits=" + std::to_string(bits))
                            .c_str());
    }
  }
}

TEST(TmacPacker, AllZeroRowsPackAsZeroCodes) {
  const Matrix w(40, 17, /*zero_fill=*/true);
  for (unsigned bits : {2u, 4u}) {
    const LowBitQuantized q = quantize_lowbit(w, bits);
    for (const float s : q.scales) EXPECT_EQ(s, 1.0f);  // all-zero fallback
    const TmacPacked p = pack_tmac(q);
    for (std::size_t i = 0; i < q.rows; ++i) {
      for (std::size_t k = 0; k < q.cols; ++k) {
        ASSERT_EQ(p.code_at(i, k), 0);
      }
    }
    expect_round_trip(q, "all-zero");
  }
}

TEST(TmacPacker, SaturationExtremesClampToRangeEnds) {
  // +max rounds to 2^(bits-1) and saturates to the top positive level;
  // -max lands exactly on the bottom level (the extra negative code).
  Matrix w(2, 4);
  for (std::size_t k = 0; k < 4; ++k) {
    w(0, k) = k == 0 ? 8.0f : 0.5f;
    w(1, k) = k == 0 ? -8.0f : 0.5f;
  }
  for (unsigned bits : {2u, 4u}) {
    const LowBitQuantized q = quantize_lowbit(w, bits);
    const int qpos = (1 << (bits - 1)) - 1, qneg = -(1 << (bits - 1));
    EXPECT_EQ(q.codes[0], qpos) << "bits=" << bits;
    EXPECT_EQ(q.codes[4], qneg) << "bits=" << bits;
    expect_round_trip(q, "saturation");
  }
}

TEST(TmacPacker, PaddingLanesDecodeAsZero) {
  Rng rng(5);
  const Matrix w = Matrix::random_normal(3, 5, rng);  // 29 padded tile rows
  const TmacPacked p = pack_tmac(quantize_lowbit(w, 2));
  ASSERT_EQ(p.ntiles, 1u);
  // Rows 3..31 of the single tile must hold the all-zero nibble.
  for (std::size_t g = 0; g < p.ngroups; ++g) {
    for (std::size_t k = 3; k < 16; ++k) {
      EXPECT_EQ(p.tile(0)[g * 16 + k] & 0x0F, 0);
    }
    for (std::size_t k = 0; k < 16; ++k) {
      EXPECT_EQ(p.tile(0)[g * 16 + k] >> 4, 0);  // rows 16..31
    }
  }
}

// -------------------------------------------------------- table builder

int decode(unsigned v, unsigned bits) {
  return static_cast<int>(v) - (v >= (1u << (bits - 1)) ? (1 << bits) : 0);
}

TEST(TmacLutBuilder, EntriesMatchNaiveDecode) {
  Rng rng(6);
  const std::size_t n = 13;  // odd: ragged 2-bit group tail
  std::vector<std::int8_t> xq(n);
  for (std::size_t k = 0; k < n; ++k) {
    xq[k] = static_cast<std::int8_t>(
        static_cast<int>(rng.next_u64() % 255) - 127);
  }
  for (unsigned storage : {2u, 4u}) {
    const std::size_t per = storage == 2 ? 2 : 1;
    const std::size_t ngroups = (n + per - 1) / per;
    std::vector<std::uint8_t> lut(ngroups * 32);
    tmac_build_column_lut(xq.data(), n, storage, ngroups, lut.data());
    for (std::size_t g = 0; g < ngroups; ++g) {
      for (unsigned v = 0; v < 16; ++v) {
        int want = 0;
        if (storage == 2) {
          if (2 * g < n) want += decode(v & 3, 2) * xq[2 * g];
          if (2 * g + 1 < n) want += decode(v >> 2, 2) * xq[2 * g + 1];
        } else {
          want = decode(v, 4) * xq[g];
        }
        const auto got = static_cast<std::int16_t>(
            static_cast<std::uint16_t>(lut[g * 32 + v]) |
            (static_cast<std::uint16_t>(lut[g * 32 + 16 + v]) << 8));
        ASSERT_EQ(got, want) << "storage=" << storage << " g=" << g
                             << " v=" << v;
      }
    }
  }
}

// --------------------------------------------------------------- engine

/// Plain int32 reference of what the engine computes: same activation
/// grid, same codes, same dequantize expression — the int16 saturating
/// chunks in the kernel are mathematically exact, so outputs must be
/// BITWISE equal, not merely close.
Matrix tmac_reference(const TmacLutGemm& engine, ConstMatrixView x) {
  const TmacPacked& p = engine.packed();
  Matrix y(p.rows, x.cols());
  std::vector<std::int8_t> xq(p.cols);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const float xs = quantize_column_int8(x.col(c), p.cols, xq.data());
    for (std::size_t i = 0; i < p.rows; ++i) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < p.cols; ++k) {
        acc += p.code_at(i, k) * static_cast<std::int32_t>(xq[k]);
      }
      y(i, c) = p.scales[i] * xs * static_cast<float>(acc);
    }
  }
  return y;
}

TEST(TmacEngine, BitwiseMatchesInt32Reference) {
  Rng rng(7);
  for (unsigned bits : {2u, 4u}) {
    for (const std::size_t b : {std::size_t{1}, std::size_t{9}}) {
      const Matrix w = Matrix::random_normal(70, 45, rng);
      const Matrix x = Matrix::random_normal(45, b, rng);
      const TmacLutGemm engine(w, bits);
      Matrix y(70, b);
      engine.run(x, y);
      expect_bitwise(y, tmac_reference(engine, x),
                     ("bits=" + std::to_string(bits)).c_str());
    }
  }
}

TEST(TmacEngine, TracksDequantizedReference) {
  Rng rng(8);
  const Matrix w = Matrix::random_normal(53, 41, rng);
  const Matrix x = Matrix::random_normal(41, 6, rng);
  for (unsigned bits : {2u, 4u}) {
    const TmacLutGemm engine(w, bits);
    Matrix y(53, 6), want(53, 6);
    engine.run(x, y);
    // vs the fp32 product with the engine's own dequantized weights the
    // only remaining error is int8 activation quantization.
    NaiveGemm exact(engine.dequantize());
    exact.run(x, want);
    EXPECT_LT(rel_fro_error(y, want), 0.02) << "bits=" << bits;
  }
}

TEST(TmacEngine, GemvColumnsMatchBatchRun) {
  Rng rng(9);
  const Matrix w = Matrix::random_normal(90, 31, rng);
  const Matrix x = Matrix::random_normal(31, 5, rng);
  const TmacLutGemm engine(w, 2);
  Matrix y_batch(90, 5);
  engine.run(x, y_batch);
  // Column-wise GEMV plans (activation quantization is per column, so
  // batch slicing cannot change any value).
  ExecContext ctx;
  const auto gemv = engine.plan(1, ctx);
  for (std::size_t c = 0; c < 5; ++c) {
    Matrix y1(90, 1);
    gemv->run(x.view().col_block(c, 1), y1);
    expect_bitwise(y1, y_batch.view().col_block(c, 1), "gemv");
  }
}

TEST(TmacEngine, BitwiseIdenticalAcrossIsaPlanes) {
  Rng rng(10);
  const Matrix w = Matrix::random_normal(67, 39, rng);
  const Matrix x = Matrix::random_normal(39, 8, rng);
  for (unsigned bits : {2u, 4u}) {
    const TmacLutGemm engine(w, bits);
    Matrix y_scalar(67, 8);
    {
      ExecContext ctx(nullptr, KernelIsa::kScalar);
      engine.plan(8, ctx)->run(x, y_scalar);
    }
    for (const KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
      if (!engine::isa_available(isa)) continue;
      ExecContext ctx(nullptr, isa);
      Matrix y(67, 8);
      engine.plan(8, ctx)->run(x, y);
      expect_bitwise(y, y_scalar, "isa plane");
    }
  }
}

TEST(TmacEngine, ThreadCountInvariantAcrossWorkItems) {
  // m = 100 is three full 32-row tiles and a ragged 4-row one. At 2-4
  // workers b = 1 cuts its column into one tile range per worker, b = 3
  // cuts each column into one or two ranges, b = 12 runs whole columns;
  // every item quantizes its column and builds its tables itself. The
  // LayerNorm arm needs a column's last tile before it normalizes, so
  // its rows finish across items.
  constexpr std::size_t m = 100, n = 57;
  Rng rng(11);
  const Matrix w = Matrix::random_normal(m, n, rng);
  std::vector<float> bias(m), gamma(m), beta(m);
  for (std::size_t i = 0; i < m; ++i) {
    bias[i] = 0.01f * static_cast<float>(i % 7) - 0.03f;
    gamma[i] = 1.0f + 0.02f * static_cast<float>(i % 5);
    beta[i] = 0.005f * static_cast<float>(i % 3);
  }
  Epilogue ln;
  ln.bias = bias.data();
  ln.act = EpilogueAct::kGelu;
  ln.ln_gamma = gamma.data();
  ln.ln_beta = beta.data();
  ln.ln_dim = m;
  for (const unsigned bits : {2u, 4u}) {
    const TmacLutGemm engine(w, bits);
    for (const std::size_t b : {std::size_t{1}, std::size_t{3},
                                std::size_t{12}}) {
      const Matrix x = Matrix::random_normal(n, b, rng);
      for (const Epilogue& ep : {Epilogue{}, ln}) {
        Matrix y_serial(m, b);
        {
          ExecContext ctx;
          engine.plan(b, ctx, ep)->run(x, y_serial);
        }
        for (const unsigned workers : {2u, 3u, 4u}) {
          Matrix y_pool(m, b);
          ThreadPool pool(workers);
          ExecContext ctx(&pool);
          engine.plan(b, ctx, ep)->run(x, y_pool);
          EXPECT_EQ(std::memcmp(y_serial.data(), y_pool.data(),
                                m * b * sizeof(float)),
                    0)
              << "bits=" << bits << " b=" << b << " workers=" << workers
              << " ln=" << (ep.ln_gamma != nullptr);
        }
      }
    }
  }
}

TEST(TmacEngine, WarmRunsPerformZeroHeapAllocations) {
  Rng rng(12);
  const Matrix w = Matrix::random_normal(96, 40, rng);
  for (unsigned bits : {2u, 4u}) {
    const TmacLutGemm engine(w, bits);
    for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
      const Matrix x = Matrix::random_normal(40, b, rng);
      Matrix y(96, b);
      ThreadPool pool(3);
      ExecContext ctx(&pool);
      const auto plan = engine.plan(b, ctx);
      plan->run(x, y);  // first run settles every arena
      const std::size_t arena_warm = ctx.scratch_heap_allocations();
      const std::size_t new_warm = g_new_calls.load();
      for (int rep = 0; rep < 3; ++rep) plan->run(x, y);
      EXPECT_EQ(ctx.scratch_heap_allocations(), arena_warm)
          << "bits=" << bits << " b=" << b;
      EXPECT_EQ(g_new_calls.load(), new_warm) << "bits=" << bits << " b=" << b;
    }
  }
}

TEST(TmacEngine, RegistryAndLinearIntegration) {
  Rng rng(13);
  const Matrix w = Matrix::random_normal(34, 22, rng);
  const Matrix x = Matrix::random_normal(22, 3, rng);
  EngineConfig cfg;
  cfg.weight_bits = 4;
  const auto engine = make_engine("tmac-lut", w, cfg);
  EXPECT_EQ(engine->name(), "tmac-lut");
  EXPECT_GT(engine->weight_bytes(), 0u);
  // 4-bit packing: ~2 codes/byte plus the per-row fp32 scales.
  EXPECT_LT(engine->weight_bytes(), 34 * 22 + 34 * sizeof(float) + 512);

  std::vector<float> bias(34, 0.25f);
  const auto layer = nn::make_linear_engine("tmac-lut", w, bias, cfg);
  Matrix y_layer(34, 3), y_plain(34, 3);
  ExecContext ctx;
  layer->forward(x, y_layer, ctx);
  engine->run(x, y_plain, ctx);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 34; ++i) {
      ASSERT_EQ(y_layer(i, c), y_plain(i, c) + 0.25f);
    }
  }
}

}  // namespace
}  // namespace biq
