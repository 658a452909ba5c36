#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/lstm.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"

namespace biq::nn {
namespace {

float sigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }

/// Hand-rolled LSTM step used as the oracle.
void reference_step(const Matrix& wx, const Matrix& wh,
                    const std::vector<float>& bias, const float* x,
                    std::vector<float>& h, std::vector<float>& c) {
  const std::size_t hidden = h.size();
  const std::size_t in = wx.cols();
  std::vector<float> gates(4 * hidden, 0.0f);
  for (std::size_t g = 0; g < 4 * hidden; ++g) {
    double acc = bias[g];
    for (std::size_t k = 0; k < in; ++k) acc += static_cast<double>(wx(g, k)) * x[k];
    for (std::size_t k = 0; k < hidden; ++k) acc += static_cast<double>(wh(g, k)) * h[k];
    gates[g] = static_cast<float>(acc);
  }
  for (std::size_t j = 0; j < hidden; ++j) {
    const float gi = sigmoid(gates[j]);
    const float gf = sigmoid(gates[hidden + j]);
    const float gg = std::tanh(gates[2 * hidden + j]);
    const float go = sigmoid(gates[3 * hidden + j]);
    c[j] = gf * c[j] + gi * gg;
    h[j] = go * std::tanh(c[j]);
  }
}

TEST(Lstm, ScanMatchesHandRolledSteps) {
  const std::size_t in = 6, hidden = 5, frames = 4;
  Rng rng(1);
  Matrix wx = Matrix::random_normal(4 * hidden, in, rng, 0.0f, 0.5f);
  Matrix wh = Matrix::random_normal(4 * hidden, hidden, rng, 0.0f, 0.5f);
  std::vector<float> bias(4 * hidden);
  fill_normal(rng, bias.data(), bias.size(), 0.0f, 0.1f);

  const Lstm lstm(LstmCell(make_linear(wx, std::vector<float>(), 0),
                           make_linear(wh, std::vector<float>(), 0), bias));
  const Matrix x = Matrix::random_normal(in, frames, rng);
  Matrix h_out(hidden, frames);
  lstm.forward(x, h_out);

  std::vector<float> h_ref(hidden, 0.0f), c_ref(hidden, 0.0f);
  for (std::size_t t = 0; t < frames; ++t) {
    reference_step(wx, wh, bias, x.col(t), h_ref, c_ref);
    for (std::size_t j = 0; j < hidden; ++j) {
      EXPECT_NEAR(h_out(j, t), h_ref[j], 1e-4f) << "t=" << t << " j=" << j;
    }
  }
}

TEST(LstmCell, ValidatesShapes) {
  Rng rng(2);
  auto wx = make_linear(Matrix::random_normal(20, 6, rng),
                        std::vector<float>(), 0);
  auto wh_bad = make_linear(Matrix::random_normal(16, 5, rng),
                            std::vector<float>(), 0);
  EXPECT_THROW(LstmCell(std::move(wx), std::move(wh_bad),
                        std::vector<float>(20, 0.0f)),
               std::invalid_argument);
}

TEST(Lstm, ForwardWalksSequence) {
  const std::size_t in = 4, hidden = 3, t = 6;
  const Lstm lstm(make_lstm_cell(in, hidden, 99, {}));
  Rng rng(3);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix h(hidden, t);
  lstm.forward(x, h);
  // States must stay in tanh range and evolve over time.
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_LE(std::fabs(h(i, c)), 1.0f);
    }
  }
  EXPECT_GT(max_abs_diff(h, Matrix(hidden, t)), 0.0f);
}

TEST(Lstm, ReverseEqualsForwardOnReversedInput) {
  const std::size_t in = 4, hidden = 3, t = 5;
  Rng rng(4);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix x_rev(in, t);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < in; ++i) x_rev(i, c) = x(i, t - 1 - c);
  }
  // The backward half of a BiLstm whose two cells share one seed.
  const Lstm fwd(make_lstm_cell(in, hidden, 5, {}));
  const BiLstm bi(make_lstm_cell(in, hidden, 5, {}),
                  make_lstm_cell(in, hidden, 5, {}));

  Matrix hf(hidden, t), h_bi(2 * hidden, t);
  fwd.forward(x_rev, hf);
  bi.forward(x, h_bi);
  const ConstMatrixView hr = h_bi.block(hidden, hidden, 0, t);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_NEAR(hr(i, c), hf(i, t - 1 - c), 1e-5f);
    }
  }
}

TEST(BiLstm, ConcatenatesDirections) {
  const std::size_t in = 4, hidden = 3, t = 5;
  BiLstm bi(make_lstm_cell(in, hidden, 21, {}), make_lstm_cell(in, hidden, 22, {}));
  Rng rng(6);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix h(2 * hidden, t);
  bi.forward(x, h);

  const Lstm fwd(make_lstm_cell(in, hidden, 21, {}));
  const Lstm bwd(make_lstm_cell(in, hidden, 22, {}));
  Matrix hf(hidden, t), x_rev(in, t), hb_rev(hidden, t);
  fwd.forward(x, hf);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < in; ++i) x_rev(i, c) = x(i, t - 1 - c);
  }
  bwd.forward(x_rev, hb_rev);
  for (std::size_t c = 0; c < t; ++c) {
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_EQ(h(i, c), hf(i, c));
      EXPECT_EQ(h(hidden + i, c), hb_rev(i, t - 1 - c));
    }
  }
}

TEST(Lstm, QuantizedCellTracksFloatCell) {
  const std::size_t in = 24, hidden = 16, t = 8;
  QuantSpec q3;
  q3.weight_bits = 3;
  const Lstm fp(make_lstm_cell(in, hidden, 77, {}));
  const Lstm quant(make_lstm_cell(in, hidden, 77, q3));

  Rng rng(7);
  Matrix x = Matrix::random_normal(in, t, rng);
  Matrix h_fp(hidden, t), h_q(hidden, t);
  fp.forward(x, h_fp);
  quant.forward(x, h_q);
  EXPECT_LT(rel_fro_error(h_q, h_fp), 0.35);
}

TEST(Lstm, QuantizedWeightsCompress) {
  QuantSpec q2;
  q2.weight_bits = 2;
  const LstmCell fp = make_lstm_cell(64, 64, 88, {});
  const LstmCell quant = make_lstm_cell(64, 64, 88, q2);
  EXPECT_LT(quant.weight_bytes() * 10, fp.weight_bytes());
}

TEST(Lstm, ForgetGateBiasInitializedToOne) {
  const LstmCell cell = make_lstm_cell(4, 3, 1, {});
  // Behavioural check: with zero input and zero hidden state the gate
  // pre-activations are the bias alone, and the forget bias of 1 keeps
  // most of a pre-set cell state (sigmoid(1) ~ 0.73).
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(cell.gate_bias()[3 + j], 1.0f);
  }
  std::vector<float> h(3, 0.0f), c{1.0f, 1.0f, 1.0f};
  cell.apply_gates(cell.gate_bias().data(), h.data(), c.data(),
                   engine::select_plane(KernelIsa::kAuto).math);
  for (float v : c) EXPECT_GT(v, 0.5f);
}

TEST(Lstm, ModuleInterfaceShapes) {
  const Lstm lstm(make_lstm_cell(10, 6, 9, {}));
  EXPECT_EQ(lstm.in_rows(), 10u);
  EXPECT_EQ(lstm.out_shape({10, 7}).rows, 6u);
  EXPECT_EQ(lstm.out_shape({10, 7}).cols, 7u);
  EXPECT_THROW((void)lstm.out_shape({9, 7}), std::invalid_argument);

  const BiLstm bi(make_lstm_cell(10, 6, 9, {}), make_lstm_cell(10, 6, 10, {}));
  EXPECT_EQ(bi.in_rows(), 10u);
  EXPECT_EQ(bi.out_shape({10, 7}).rows, 12u);
  EXPECT_THROW((void)bi.out_shape({12, 7}), std::invalid_argument);
}

TEST(Lstm, ScanPlanRunsBothDirections) {
  // The cell's frozen scan (the piece Lstm/BiLstm module steps replay):
  // the forward scan is the Lstm module's output, and the reverse scan
  // is the forward scan of the time-reversed input, reversed.
  const std::size_t in = 10, hidden = 6, frames = 5;
  ExecContext ctx;
  const Lstm lstm(make_lstm_cell(in, hidden, 9, {}));
  Rng rng(5);
  const Matrix x = Matrix::random_normal(in, frames, rng);
  Matrix x_rev(in, frames);
  for (std::size_t c = 0; c < frames; ++c) {
    for (std::size_t i = 0; i < in; ++i) x_rev(i, c) = x(i, frames - 1 - c);
  }

  ModelPlanner planner;
  ModulePlanContext mpc(planner, ctx, frames);
  const LstmCell::ScanPlan scan = lstm.cell().plan_scan(mpc);
  std::vector<float> arena(planner.peak_floats(), 0.0f);

  Matrix module_out(hidden, frames), planned(hidden, frames);
  lstm.forward(x, module_out, ctx);
  scan.run(arena.data(), x, planned, /*reverse=*/false);
  EXPECT_EQ(max_abs_diff(planned, module_out), 0.0f);

  lstm.forward(x_rev, module_out, ctx);
  scan.run(arena.data(), x, planned, /*reverse=*/true);
  for (std::size_t c = 0; c < frames; ++c) {
    for (std::size_t i = 0; i < hidden; ++i) {
      EXPECT_EQ(planned(i, c), module_out(i, frames - 1 - c));
    }
  }
}

}  // namespace
}  // namespace biq::nn
