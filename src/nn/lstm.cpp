#include "nn/lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "engine/epilogue.hpp"
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

void LstmCell::apply_gates(const float* pre, float* h,
                           float* c) const noexcept {
  for (std::size_t j = 0; j < hidden_; ++j) {
    const float gi = epilogue::sigmoid(pre[j]);
    const float gf = epilogue::sigmoid(pre[hidden_ + j]);
    const float gg = std::tanh(pre[2 * hidden_ + j]);
    const float go = epilogue::sigmoid(pre[3 * hidden_ + j]);
    c[j] = gf * c[j] + gi * gg;
    h[j] = go * std::tanh(c[j]);
  }
}

LstmCell::ScanPlan LstmCell::plan_scan(ModulePlanContext& mpc) const {
  ScanPlan p;
  p.cell_ = this;
  p.sgx_ = mpc.acquire(4 * hidden_, 1);
  p.sgh_ = mpc.acquire(4 * hidden_, 1);
  p.sh_ = mpc.acquire(hidden_, 1);
  p.sc_ = mpc.acquire(hidden_, 1);
  p.wx_ = LinearPlan(*wx_, 1, mpc.exec());
  // The recurrent layer carries no bias of its own, so the cell's gate
  // bias rides its plan as an override, and gx arrives as the run-time
  // residual: gh = (Wh.h + bias) + gx in the GEMV's epilogue.
  LinearFusion fusion;
  fusion.residual = true;
  fusion.bias = &bias_;
  p.wh_ = LinearPlan(*wh_, 1, mpc.exec(), fusion);
  return p;
}

void LstmCell::ScanPlan::release(ModulePlanContext& mpc) const {
  mpc.release(sgx_);
  mpc.release(sgh_);
  mpc.release(sh_);
  mpc.release(sc_);
}

void LstmCell::ScanPlan::run(float* base, ConstMatrixView x, MatrixView y,
                             bool reverse, const PrepHandle* xpreps) const {
  const MatrixView gx = sgx_.view(base);
  const MatrixView gh = sgh_.view(base);
  const MatrixView h = sh_.view(base);
  const MatrixView c = sc_.view(base);
  h.set_zero();
  c.set_zero();
  const std::size_t frames = x.cols();
  const std::size_t hidden = cell_->hidden_size();
  for (std::size_t s = 0; s < frames; ++s) {
    const std::size_t t = reverse ? frames - 1 - s : s;
    if (xpreps != nullptr) {
      wx_.run(xpreps[t], gx);
    } else {
      wx_.run(x.col_block(t, 1), gx);
    }
    wh_.run(h, gh, gx);  // gh = (Wh.h + bias) + gx, one fused pass
    cell_->apply_gates(gh.col(0), h.col(0), c.col(0));
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

  /// Shared-prep variant: `sprep` holds one prep column per frame
  /// (stride = sprep.rows() floats); run_step prepares every frame once
  /// through the forward cell's input-projection plan, then BOTH scans
  /// consume the handles — each frame's artifact is built once instead
  /// of twice. Both directions' prep keys were verified equal by the
  /// caller, so the backward scan reads the forward plan's artifacts
  /// bitwise-exactly as its own prepare would have written them.
  BiLstmStep(LstmCell::ScanPlan fw, LstmCell::ScanPlan bw, std::size_t hidden,
             ModelSlot sprep, std::size_t frames)
      : fw_(std::move(fw)), bw_(std::move(bw)), hidden_(hidden),
        share_(true), sprep_(sprep), xpreps_(frames) {}

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    const PrepHandle* preps = nullptr;
    if (share_) {
      float* prep_base = base + sprep_.offset();
      const std::size_t stride = sprep_.rows();
      for (std::size_t t = 0; t < x.cols(); ++t) {
        xpreps_[t].bind(prep_base + t * stride, stride);
        fw_.wx_plan().prepare(x.col_block(t, 1), xpreps_[t]);
      }
      preps = xpreps_.data();
    }
    fw_.run(base, x, y.block(0, hidden_, 0, y.cols()), /*reverse=*/false,
            preps);
    bw_.run(base, x, y.block(hidden_, hidden_, 0, y.cols()), /*reverse=*/true,
            preps);
  }

 private:
  LstmCell::ScanPlan fw_, bw_;
  std::size_t hidden_;
  bool share_ = false;
  ModelSlot sprep_;  // prep_stride x T; column t = frame t's artifact
  // Sized at plan time, rebound to the arena each run_step — warm runs
  // allocate nothing (one caller at a time owns a running plan).
  mutable std::vector<PrepHandle> xpreps_;
};

}  // namespace

Shape Lstm::out_shape(Shape in) const {
  check_in_rows(in, "Lstm");
  return {cell_.hidden_size(), in.cols};
}

std::unique_ptr<ModuleStep> Lstm::plan_into(ModulePlanContext& mpc) const {
  LstmCell::ScanPlan scan = cell_.plan_scan(mpc);
  scan.release(mpc);  // state slots live only while this step runs
  return std::make_unique<LstmStep>(std::move(scan));
}

Shape BiLstm::out_shape(Shape in) const {
  check_in_rows(in, "BiLstm");
  return {2 * hidden_size(), in.cols};
}

std::unique_ptr<ModuleStep> BiLstm::plan_into(ModulePlanContext& mpc) const {
  // Both directions read every frame of the same x, so when their input
  // projections freeze identical activation artifacts (equal prep keys),
  // each frame's LUT/quantization builds once and both scans consume it
  // — the build cost halves. Probing requires both scans' plans up
  // front, so their slots coexist (a few 4h/h vectors — noise next to
  // the per-frame prep slab) and the prep slot spans the whole step:
  // its last reader is the backward scan's final frame.
  LstmCell::ScanPlan fw = fw_.cell().plan_scan(mpc);
  LstmCell::ScanPlan bw = bw_.cell().plan_scan(mpc);
  const bool share = shareable_prep({&fw.wx_plan(), &bw.wx_plan()});
  ModelSlot sprep;
  if (share) {
    // One column per frame, stride rounded so every frame's artifact
    // keeps the arena base's 64-byte alignment.
    constexpr std::size_t kAlignFloats = 16;
    const std::size_t stride =
        (fw.wx_plan().prep_floats() + kAlignFloats - 1) / kAlignFloats *
        kAlignFloats;
    sprep = mpc.acquire(stride, mpc.batch());
  }
  fw.release(mpc);
  bw.release(mpc);
  if (share) {
    mpc.release(sprep);
    return std::make_unique<BiLstmStep>(std::move(fw), std::move(bw),
                                        hidden_size(), sprep, mpc.batch());
  }
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
