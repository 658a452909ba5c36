#include "gemm/gemm_ref.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

#include "engine/partition.hpp"

namespace biq {
namespace {

void check_shapes(std::size_t wr, std::size_t wc, const Matrix& x,
                  const Matrix& y) {
  if (x.rows() != wc || y.rows() != wr || y.cols() != x.cols()) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
}

/// Rows [i0, i1) of column c of the gemm_naive loop: the per-row
/// accumulation over k is the same whatever the range, so cells compose
/// bitwise into any (column, row range) partition.
void naive_cell(const Matrix& w, ConstMatrixView x, MatrixView y,
                std::size_t c, std::size_t i0, std::size_t i1) {
  const std::size_t n = w.cols();
  const float* wdata = w.data();  // column k of W is contiguous (ld == m)
  const float* xc = x.col(c);
  float* yc = y.col(c);
  for (std::size_t i = i0; i < i1; ++i) yc[i] = 0.0f;
  for (std::size_t k = 0; k < n; ++k) {
    const float xk = xc[k];
    const float* wk = wdata + k * w.ld();
    for (std::size_t i = i0; i < i1; ++i) yc[i] += wk[i] * xk;
  }
}

class NaivePlan final : public GemmPlan {
 public:
  NaivePlan(const NaiveGemm& engine, const Matrix& w, std::size_t batch,
            ExecContext& ctx, const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        w_(&w) {}

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    // One (column, row range) cell per item; the epilogue runs on the
    // cell right after its accumulation finishes — cells are disjoint,
    // so this matches a whole-matrix pass.
    engine::for_each_cell(
        context(), batch(), rows(), [](ScratchArena&) { return 0; },
        [&](int, std::size_t c, std::size_t i0, std::size_t i1) {
          naive_cell(*w_, x, y, c, i0, i1);
          if (!ep.empty()) ep.apply(y, i0, i1, c, c + 1);
        });
  }

  const Matrix* w_;
};

}  // namespace

std::unique_ptr<GemmPlan> NaiveGemm::plan(std::size_t batch, ExecContext& ctx,
                                          const Epilogue& epilogue) const {
  return std::make_unique<NaivePlan>(*this, w_, batch, ctx, epilogue);
}

void gemm_ref(const Matrix& w, const Matrix& x, Matrix& y) {
  check_shapes(w.rows(), w.cols(), x, y);
  const std::size_t m = w.rows(), n = w.cols(), b = x.cols();
  for (std::size_t c = 0; c < b; ++c) {
    const float* xc = x.col(c);
    float* yc = y.col(c);
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += static_cast<double>(w(i, k)) * xc[k];
      }
      yc[i] = static_cast<float>(acc);
    }
  }
}

void gemm_naive(const Matrix& w, const Matrix& x, Matrix& y) {
  check_shapes(w.rows(), w.cols(), x, y);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    naive_cell(w, x, y, c, 0, w.rows());
  }
}

void gemv_ref(const Matrix& w, const float* x, float* y) {
  const std::size_t m = w.rows(), n = w.cols();
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      acc += static_cast<double>(w(i, k)) * x[k];
    }
    y[i] = static_cast<float>(acc);
  }
}

void gemm_binary_ref(const BinaryMatrix& bmat, const Matrix& x, Matrix& y) {
  check_shapes(bmat.rows(), bmat.cols(), x, y);
  const std::size_t m = bmat.rows(), n = bmat.cols(), b = x.cols();
  for (std::size_t c = 0; c < b; ++c) {
    const float* xc = x.col(c);
    float* yc = y.col(c);
    for (std::size_t i = 0; i < m; ++i) {
      const std::int8_t* row = bmat.row(i);
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += row[k] > 0 ? xc[k] : -xc[k];
      }
      yc[i] = static_cast<float>(acc);
    }
  }
}

void gemm_codes_ref(const BinaryCodes& codes, const Matrix& x, Matrix& y) {
  check_shapes(codes.rows, codes.cols, x, y);
  const std::size_t m = codes.rows, n = codes.cols, b = x.cols();
  for (std::size_t c = 0; c < b; ++c) {
    const float* xc = x.col(c);
    float* yc = y.col(c);
    for (std::size_t i = 0; i < m; ++i) {
      double total = 0.0;
      for (unsigned q = 0; q < codes.bits; ++q) {
        const std::int8_t* row = codes.planes[q].row(i);
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          acc += row[k] > 0 ? xc[k] : -xc[k];
        }
        total += static_cast<double>(codes.alphas[q][i]) * acc;
      }
      yc[i] = static_cast<float>(total);
    }
  }
}

}  // namespace biq
