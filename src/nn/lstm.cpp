#include "nn/lstm.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/dispatch.hpp"
#include "nn/tensor.hpp"

namespace biq::nn {

LstmCell::LstmCell(std::unique_ptr<LinearLayer> input_proj,
                   std::unique_ptr<LinearLayer> recurrent_proj,
                   std::vector<float> bias)
    : in_(input_proj->in_features()),
      hidden_(recurrent_proj->in_features()),
      wx_(std::move(input_proj)), wh_(std::move(recurrent_proj)),
      bias_(std::move(bias)) {
  if (wx_->out_features() != 4 * hidden_ || wh_->out_features() != 4 * hidden_) {
    throw std::invalid_argument("LstmCell: projections must output 4*hidden");
  }
  if (bias_.size() != 4 * hidden_) {
    throw std::invalid_argument("LstmCell: bias must have length 4*hidden");
  }
}

void LstmCell::apply_gates(const float* pre, float* h, float* c,
                           const engine::MathKernels& math) const noexcept {
  // Gate activations run as math-plane sweeps over stack chunks; the
  // sweeps are position independent, so chunking does not move a bit.
  constexpr std::size_t kChunk = 64;
  float gi[kChunk] = {}, gf[kChunk] = {}, gg[kChunk] = {}, go[kChunk] = {};
  for (std::size_t j0 = 0; j0 < hidden_; j0 += kChunk) {
    const std::size_t n = std::min(kChunk, hidden_ - j0);
    math.sigmoid(pre + j0, gi, n);
    math.sigmoid(pre + hidden_ + j0, gf, n);
    math.tanh(pre + 2 * hidden_ + j0, gg, n);
    math.sigmoid(pre + 3 * hidden_ + j0, go, n);
    float* cj = c + j0;
    float* hj = h + j0;
    for (std::size_t j = 0; j < n; ++j) cj[j] = gf[j] * cj[j] + gi[j] * gg[j];
    math.tanh(cj, hj, n);
    for (std::size_t j = 0; j < n; ++j) hj[j] *= go[j];
  }
}

LstmCell::ScanPlan LstmCell::plan_scan(ModulePlanContext& mpc) const {
  ScanPlan p;
  p.cell_ = this;
  p.sgx_ = mpc.acquire(4 * hidden_, mpc.batch());
  p.sgh_ = mpc.acquire(4 * hidden_, 1);
  p.sh_ = mpc.acquire(hidden_, 1);
  p.sc_ = mpc.acquire(hidden_, 1);
  p.wx_ = wx_->plan(mpc.batch(), mpc.exec());
  // The recurrent layer carries no bias of its own, so the cell's gate
  // bias rides its plan as the fold's bias, and gx arrives as the
  // run-time residual: gh = (Wh.h + bias) + gx in the GEMV's epilogue.
  p.wh_ = wh_->plan(1, mpc.exec(), {.bias = bias_.data(), .residual = true});
  for (const ModelSlot* s : {&p.sgx_, &p.sgh_, &p.sh_, &p.sc_}) {
    mpc.release(*s);
  }
  return p;
}

void LstmCell::ScanPlan::run(float* base, ConstMatrixView x, MatrixView y,
                             bool reverse) const {
  const MatrixView gx = sgx_.view(base);
  const MatrixView gh = sgh_.view(base);
  const MatrixView h = sh_.view(base);
  const MatrixView c = sc_.view(base);
  h.set_zero();
  c.set_zero();
  // Wx.x_t does not depend on the recurrence, so every frame's input
  // projection runs up front as one GEMM: each LUT is built once per
  // batch tile of frames instead of once per frame.
  wx_->run(x, gx);
  const std::size_t frames = x.cols();
  const std::size_t hidden = cell_->hidden_size();
  for (std::size_t s = 0; s < frames; ++s) {
    const std::size_t t = reverse ? frames - 1 - s : s;
    wh_->run(h, gh, gx.col_block(t, 1));  // gh = (Wh.h + bias) + gx_t
    cell_->apply_gates(gh.col(0), h.col(0), c.col(0), wh_->plane().math);
    float* out = y.col(t);
    const float* hp = h.col(0);
    for (std::size_t i = 0; i < hidden; ++i) out[i] = hp[i];
  }
}

namespace {

class LstmStep final : public ModuleStep {
 public:
  explicit LstmStep(LstmCell::ScanPlan scan) : scan_(std::move(scan)) {}

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    scan_.run(base, x, y, /*reverse=*/false);
  }

 private:
  LstmCell::ScanPlan scan_;
};

class BiLstmStep final : public ModuleStep {
 public:
  BiLstmStep(LstmCell::ScanPlan fw, LstmCell::ScanPlan bw, std::size_t hidden)
      : fw_(std::move(fw)), bw_(std::move(bw)), hidden_(hidden) {}

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    fw_.run(base, x, y.block(0, hidden_, 0, y.cols()), /*reverse=*/false);
    bw_.run(base, x, y.block(hidden_, hidden_, 0, y.cols()), /*reverse=*/true);
  }

 private:
  LstmCell::ScanPlan fw_, bw_;
  std::size_t hidden_;
};

}  // namespace

Shape Lstm::out_shape(Shape in) const {
  check_in_rows(in, "Lstm");
  return {cell_.hidden_size(), in.cols};
}

std::unique_ptr<ModuleStep> Lstm::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& /*fold*/) const {
  return std::make_unique<LstmStep>(cell_.plan_scan(mpc));
}

Shape BiLstm::out_shape(Shape in) const {
  check_in_rows(in, "BiLstm");
  return {2 * hidden_size(), in.cols};
}

std::unique_ptr<ModuleStep> BiLstm::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& /*fold*/) const {
  // The backward scan runs after the forward scan has finished, so its
  // slots may take the storage the forward scan released.
  LstmCell::ScanPlan fw = fw_.cell().plan_scan(mpc);
  LstmCell::ScanPlan bw = bw_.cell().plan_scan(mpc);
  return std::make_unique<BiLstmStep>(std::move(fw), std::move(bw),
                                      hidden_size());
}

BiLstm::BiLstm(LstmCell forward_cell, LstmCell backward_cell)
    : fw_(std::move(forward_cell)), bw_(std::move(backward_cell)) {
  if (fw_.cell().hidden_size() != bw_.cell().hidden_size() ||
      fw_.cell().input_size() != bw_.cell().input_size()) {
    throw std::invalid_argument("BiLstm: direction shape mismatch");
  }
}

LstmCell make_lstm_cell(std::size_t input, std::size_t hidden,
                        std::uint64_t seed, const QuantSpec& spec) {
  Rng rng(seed);
  Matrix wx = xavier_uniform(4 * hidden, input, rng);
  Matrix wh = xavier_uniform(4 * hidden, hidden, rng);
  std::vector<float> bias(4 * hidden, 0.0f);
  // Standard trick: forget-gate bias starts at 1 for stable gradients —
  // kept here so float and quantized cells match common checkpoints.
  for (std::size_t j = 0; j < hidden; ++j) bias[hidden + j] = 1.0f;

  auto wx_layer = make_linear(wx, std::vector<float>(), spec.weight_bits,
                              spec.method, spec.kernel);
  auto wh_layer = make_linear(wh, std::vector<float>(), spec.weight_bits,
                              spec.method, spec.kernel);
  return LstmCell(std::move(wx_layer), std::move(wh_layer), std::move(bias));
}

}  // namespace biq::nn
