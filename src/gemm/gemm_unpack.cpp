#include "gemm/gemm_unpack.hpp"

#include <memory>
#include <stdexcept>

#include "engine/partition.hpp"

namespace biq {
namespace {

void check_shapes(const PackedBits32& packed, ConstMatrixView x,
                  ConstMatrixView y) {
  if (x.rows() != packed.cols() || y.rows() != packed.rows() ||
      y.cols() != x.cols()) {
    throw std::invalid_argument("gemm_unpack: shape mismatch");
  }
}

constexpr std::size_t kLanes = 8;

/// sum of w(t) * x[t] over t < len (len <= 32) in the one loop shape
/// every Fig. 9 arm shares: eight lane accumulators over the whole
/// 8-blocks, summed in lane order, then the tail one element at a time.
/// `w` maps an index to its weight.
template <class Weight>
float dot8(Weight w, const float* x, std::size_t len) {
  float acc[kLanes] = {};
  std::size_t t = 0;
  for (; t + kLanes <= len; t += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] += w(t + l) * x[t + l];
  }
  float s = 0.0f;
  for (const float a : acc) s += a;
  for (; t < len; ++t) s += w(t) * x[t];
  return s;
}

/// dot(weights, x[0..len)) with len <= 32.
float dot_unpacked(const float* weights, const float* x, std::size_t len) {
  return dot8([weights](std::size_t t) { return weights[t]; }, x, len);
}

/// Expands rows [row0, row1) of a packed plane into fp32 {-1,+1}, one
/// row padded to a multiple of 32 columns. This is the paper's
/// "unpacking is required to be performed prior to running GEMM" step —
/// it runs per GEMM call, because the fp32 form is 32x larger than the
/// packed form and caching it would forfeit the footprint reduction
/// quantization bought. Rows are independent, so ranges parallelize.
void unpack_plane_rows(const PackedBits32& packed, float* out,
                       std::size_t padded_cols, std::size_t row0,
                       std::size_t row1) {
  const std::size_t words = packed.words_per_row();
  for (std::size_t i = row0; i < row1; ++i) {
    const std::uint32_t* row = packed.row(i);
    float* dst = out + i * padded_cols;
    for (std::size_t wi = 0; wi < words; ++wi) {
      unpack_word_to_pm1(row[wi], dst + wi * 32);  // Algorithm 3
    }
  }
}

constexpr std::size_t kUnpackRowGrain = 32;

/// The shared multiply loop of all three Fig. 9 scenarios: row-major
/// fp32 weights (padded to 32-column groups) against col-major X. The
/// caller zeroes Y; rows are independent, so ranges parallelize.
void multiply_rowmajor_rows(const float* w, std::size_t n,
                            std::size_t padded_cols, ConstMatrixView x,
                            MatrixView y, std::size_t row0, std::size_t row1) {
  const std::size_t b = x.cols();
  const std::size_t words = padded_cols / 32;
  for (std::size_t i = row0; i < row1; ++i) {
    const float* wrow = w + i * padded_cols;
    for (std::size_t wi = 0; wi < words; ++wi) {
      const std::size_t base = wi * 32;
      const std::size_t len = std::min<std::size_t>(32, n - base);
      for (std::size_t c = 0; c < b; ++c) {
        y(i, c) += dot_unpacked(wrow + base, x.col(c) + base, len);
      }
    }
  }
}

void multiply_rowmajor(const float* w, std::size_t m, std::size_t n,
                       std::size_t padded_cols, ConstMatrixView x,
                       MatrixView y) {
  y.set_zero();
  multiply_rowmajor_rows(w, n, padded_cols, x, y, 0, m);
}

std::size_t pad32(std::size_t n) { return (n + 31) / 32 * 32; }

}  // namespace

void gemm_unpack(const PackedBits32& packed, ConstMatrixView x, MatrixView y) {
  gemm_unpack(packed, x, y, ExecContext::thread_default());
}

void gemm_unpack(const PackedBits32& packed, ConstMatrixView x, MatrixView y,
                 ExecContext& ctx) {
  check_shapes(packed, x, y);
  const std::size_t m = packed.rows(), n = packed.cols();
  const std::size_t padded = pad32(n);

  // The expanded plane is shared by the multiply workers: allocate from
  // the calling thread's arena before the parallel phases.
  ScratchArena& arena = ctx.scratch(0);
  arena.reset();
  float* unpacked = arena.alloc<float>(m * padded);
  engine::for_each_tile(ctx, m, kUnpackRowGrain,
                        [&](unsigned /*worker*/, std::size_t r0,
                            std::size_t r1) {
                          unpack_plane_rows(packed, unpacked, padded, r0, r1);
                        });
  y.set_zero();
  engine::for_each_tile(ctx, m, kUnpackRowGrain,
                        [&](unsigned /*worker*/, std::size_t r0,
                            std::size_t r1) {
                          multiply_rowmajor_rows(unpacked, n, padded, x, y, r0,
                                                 r1);
                        });
}

void gemm_unpack_codes(const std::vector<PackedBits32>& planes,
                       const std::vector<std::vector<float>>& alphas,
                       ConstMatrixView x, MatrixView y) {
  gemm_unpack_codes(planes, alphas, x, y, ExecContext::thread_default());
}

void gemm_unpack_codes(const std::vector<PackedBits32>& planes,
                       const std::vector<std::vector<float>>& alphas,
                       ConstMatrixView x, MatrixView y, ExecContext& ctx,
                       const EpilogueOp* ep) {
  if (planes.empty() || planes.size() != alphas.size()) {
    throw std::invalid_argument("gemm_unpack_codes: plane/alpha mismatch");
  }
  check_shapes(planes[0], x, y);
  const std::size_t m = planes[0].rows(), n = planes[0].cols(), b = x.cols();
  const std::size_t padded = pad32(n);
  const std::size_t words = padded / 32;

  ScratchArena& arena = ctx.scratch(0);
  arena.reset();
  float* unpacked = arena.alloc<float>(m * padded);
  y.set_zero();
  for (std::size_t q = 0; q < planes.size(); ++q) {
    // Barrier between the phases: the multiply reads rows other workers
    // unpacked. Rows are disjoint within each phase, and the per-element
    // plane accumulation order (q ascending) is preserved, so output is
    // bitwise identical at any worker count.
    engine::for_each_tile(ctx, m, kUnpackRowGrain,
                          [&](unsigned /*worker*/, std::size_t r0,
                              std::size_t r1) {
                            unpack_plane_rows(planes[q], unpacked, padded, r0,
                                              r1);
                          });
    const std::vector<float>& alpha = alphas[q];
    // The epilogue rides the last plane's pass: once row i has absorbed
    // every plane's contribution its values are final, so the fused
    // transform runs while the row is still warm.
    const bool fused = q + 1 == planes.size() && ep != nullptr && !ep->empty();
    engine::for_each_tile(
        ctx, m, kUnpackRowGrain,
        [&](unsigned /*worker*/, std::size_t r0, std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i) {
            const float* wrow = unpacked + i * padded;
            const float a = alpha[i];
            for (std::size_t wi = 0; wi < words; ++wi) {
              const std::size_t base = wi * 32;
              const std::size_t len = std::min<std::size_t>(32, n - base);
              for (std::size_t c = 0; c < b; ++c) {
                y(i, c) += a * dot_unpacked(wrow + base, x.col(c) + base, len);
              }
            }
          }
          // The whole row block has accumulated and is still warm;
          // apply()'s staged loops transform it in one sweep instead of
          // per-element dispatch inside the row loop.
          if (fused) ep->apply(y, r0, r1, 0, b);
        });
  }
}

void gemm_packed_no_unpack(const PackedBits32& packed, ConstMatrixView x,
                           MatrixView y) {
  check_shapes(packed, x, y);
  const std::size_t m = packed.rows(), n = packed.cols(), b = x.cols();
  const std::size_t words = packed.words_per_row();

  y.set_zero();
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t* row = packed.row(i);
    for (std::size_t wi = 0; wi < words; ++wi) {
      // Treat the packed word as one fp32 scalar and multiply the
      // 32 activations it covers — same arithmetic volume as the
      // unpacked path, zero decode work, wrong values (by design).
      // int->float conversion, NOT a bit reinterpretation: see header.
      const float s = static_cast<float>(row[wi]);
      const std::size_t base = wi * 32;
      const std::size_t len = std::min<std::size_t>(32, n - base);
      for (std::size_t c = 0; c < b; ++c) {
        y(i, c) += dot8([s](std::size_t) { return s; }, x.col(c) + base, len);
      }
    }
  }
}

UnpackGemm::UnpackGemm(const BinaryCodes& codes)
    : m_(codes.rows), n_(codes.cols), planes_(pack_code_planes(codes)),
      alphas_(codes.alphas) {
  if (codes.bits == 0 || codes.planes.size() != codes.bits) {
    throw std::invalid_argument("UnpackGemm: malformed BinaryCodes");
  }
}

namespace {

class UnpackPlan final : public GemmPlan {
 public:
  UnpackPlan(const UnpackGemm& engine, const std::vector<PackedBits32>& planes,
             const std::vector<std::vector<float>>& alphas, std::size_t batch,
             ExecContext& ctx, const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        planes_(&planes), alphas_(&alphas) {}

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    gemm_unpack_codes(*planes_, *alphas_, x, y, context(), &ep);
  }

  const std::vector<PackedBits32>* planes_;
  const std::vector<std::vector<float>>* alphas_;
};

}  // namespace

std::unique_ptr<GemmPlan> UnpackGemm::plan(std::size_t batch, ExecContext& ctx,
                                           const Epilogue& epilogue) const {
  return std::make_unique<UnpackPlan>(*this, planes_, alphas_, batch, ctx,
                                      epilogue);
}

std::size_t UnpackGemm::weight_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const PackedBits32& p : planes_) bytes += p.storage_bytes();
  for (const auto& a : alphas_) bytes += a.size() * sizeof(float);
  return bytes;
}

RowMajorGemm::RowMajorGemm(const Matrix& w)
    : m_(w.rows()), n_(w.cols()), padded_cols_(pad32(w.cols())),
      w_(w.rows() * padded_cols_, /*zero_fill=*/true) {
  for (std::size_t i = 0; i < m_; ++i) {
    float* dst = w_.data() + i * padded_cols_;
    for (std::size_t k = 0; k < n_; ++k) dst[k] = w(i, k);
  }
}

void RowMajorGemm::run(ConstMatrixView x, MatrixView y) const {
  if (x.rows() != n_ || y.rows() != m_ || y.cols() != x.cols()) {
    throw std::invalid_argument("RowMajorGemm: shape mismatch");
  }
  multiply_rowmajor(w_.data(), m_, n_, padded_cols_, x, y);
}

std::vector<PackedBits32> pack_code_planes(const BinaryCodes& codes) {
  std::vector<PackedBits32> planes;
  planes.reserve(codes.bits);
  for (unsigned q = 0; q < codes.bits; ++q) {
    planes.push_back(pack_rows_u32(codes.planes[q]));
  }
  return planes;
}

}  // namespace biq
