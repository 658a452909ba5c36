// Test-only reference composition for the nn modules — the oracle the
// compiled ModelPlan is checked against. Every projection runs its
// layer's bare engine plan (empty epilogue); bias, activation, residual,
// the attention core (scores, softmax, context), the LSTM gates and the
// direction concat then run as plain loops over std:: functions, so the
// oracle shares no code with the math plane under test; so does
// LayerNorm, as the per-column sequential chain. Nothing here
// folds, shares prep or packs an arena, so it shares no fusion, prep or
// liveness logic with the planner; it also makes no attempt to follow
// the fused operand order — compare with expect_matches_reference
// (a relative max-abs tolerance), never bitwise.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "engine/epilogue.hpp"
#include "nn/model_plan.hpp"

namespace biq::nn::reference {

inline Matrix linear(const LinearLayer& layer, ConstMatrixView x,
                     ExecContext& ctx) {
  Matrix y(layer.out_features(), x.cols());
  layer.engine().plan(x.cols(), ctx)->run(x, y);
  const std::vector<float>& bias = layer.bias();
  if (bias.empty()) return y;
  for (std::size_t c = 0; c < y.cols(); ++c) {
    for (std::size_t i = 0; i < y.rows(); ++i) y(i, c) += bias[i];
  }
  return y;
}

inline float sigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }

inline float activate(float v, Act act) {
  switch (act) {
    case Act::kNone: return v;
    case Act::kRelu: return v > 0.0f ? v : 0.0f;
    case Act::kGelu: {
      const float inner = 0.7978845608028654f * (v + 0.044715f * v * v * v);
      return 0.5f * v * (1.0f + std::tanh(inner));
    }
    case Act::kSigmoid: return sigmoid(v);
    case Act::kTanh: return std::tanh(v);
  }
  return v;
}

inline void activate(Matrix& y, Act act) {
  for (std::size_t c = 0; c < y.cols(); ++c) {
    for (std::size_t i = 0; i < y.rows(); ++i) {
      y(i, c) = activate(y(i, c), act);
    }
  }
}

/// Softmax over the rows of each column, max-shifted.
inline void softmax_columns(Matrix& s) {
  for (std::size_t c = 0; c < s.cols(); ++c) {
    float peak = s(0, c);
    for (std::size_t i = 1; i < s.rows(); ++i) peak = std::max(peak, s(i, c));
    float sum = 0.0f;
    for (std::size_t i = 0; i < s.rows(); ++i) {
      s(i, c) = std::exp(s(i, c) - peak);
      sum += s(i, c);
    }
    for (std::size_t i = 0; i < s.rows(); ++i) s(i, c) /= sum;
  }
}

/// y += x element-wise.
inline void add(Matrix& y, ConstMatrixView x) {
  for (std::size_t c = 0; c < y.cols(); ++c) {
    for (std::size_t i = 0; i < y.rows(); ++i) y(i, c) += x(i, c);
  }
}

inline Matrix layernorm(const LayerNorm& ln, ConstMatrixView x) {
  const std::size_t d = x.rows();
  Matrix y(d, x.cols());
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const float* src = x.col(c);
    double mean = 0.0;
    for (std::size_t i = 0; i < d; ++i) mean += src[i];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double dv = src[i] - mean;
      var += dv * dv;
    }
    var /= static_cast<double>(d);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + ln.eps());
    for (std::size_t i = 0; i < d; ++i) {
      y(i, c) = ln.gamma()[i] * (static_cast<float>(src[i] - mean) * inv) +
                ln.beta()[i];
    }
  }
  return y;
}

inline Matrix attention(const MultiHeadAttention& a, ConstMatrixView x,
                        ExecContext& ctx) {
  const Matrix q = linear(a.wq(), x, ctx);
  const Matrix k = linear(a.wk(), x, ctx);
  const Matrix v = linear(a.wv(), x, ctx);
  const std::size_t t = x.cols(), hd = a.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  Matrix scores(t, t), context(a.hidden(), t);
  for (std::size_t r0 = 0; r0 < a.hidden(); r0 += hd) {
    for (std::size_t qt = 0; qt < t; ++qt) {
      for (std::size_t kt = 0; kt < t; ++kt) {
        float dot = 0.0f;
        for (std::size_t i = r0; i < r0 + hd; ++i) dot += q(i, qt) * k(i, kt);
        scores(kt, qt) = dot * scale;
      }
    }
    softmax_columns(scores);
    for (std::size_t qt = 0; qt < t; ++qt) {
      for (std::size_t i = r0; i < r0 + hd; ++i) {
        float acc = 0.0f;
        for (std::size_t kt = 0; kt < t; ++kt) acc += v(i, kt) * scores(kt, qt);
        context(i, qt) = acc;
      }
    }
  }
  return linear(a.wo(), context, ctx);
}

inline Matrix feed_forward(const FeedForward& f, ConstMatrixView x,
                           ExecContext& ctx) {
  Matrix mid = linear(f.up(), x, ctx);
  activate(mid, f.activation());
  return linear(f.down(), mid, ctx);
}

inline Matrix encoder_layer(const EncoderLayer& l, ConstMatrixView x,
                            ExecContext& ctx) {
  Matrix a = attention(l.attention(), x, ctx);
  add(a, x);
  const Matrix y = layernorm(l.ln1(), a);
  Matrix f = feed_forward(l.ffn(), y, ctx);
  add(f, y);
  return layernorm(l.ln2(), f);
}

/// One direction's scan: h, c start at zero; y[:, t] = h after frame t.
inline Matrix lstm(const LstmCell& cell, ConstMatrixView x, bool reverse,
                   ExecContext& ctx) {
  const std::size_t hid = cell.hidden_size(), frames = x.cols();
  Matrix y(hid, frames), h(hid, 1), c(hid, 1);
  for (std::size_t s = 0; s < frames; ++s) {
    const std::size_t t = reverse ? frames - 1 - s : s;
    Matrix pre = linear(cell.wx(), x.col_block(t, 1), ctx);
    add(pre, linear(cell.wh(), h, ctx));
    for (std::size_t j = 0; j < 4 * hid; ++j) {
      pre(j, 0) += cell.gate_bias()[j];
    }
    for (std::size_t j = 0; j < hid; ++j) {
      c(j, 0) = sigmoid(pre(hid + j, 0)) * c(j, 0) +
                sigmoid(pre(j, 0)) * std::tanh(pre(2 * hid + j, 0));
      h(j, 0) = sigmoid(pre(3 * hid + j, 0)) * std::tanh(c(j, 0));
      y(j, t) = h(j, 0);
    }
  }
  return y;
}

/// Dispatches on the module's concrete type and recurses through
/// Sequential / Residual / TransformerEncoder composites.
inline Matrix forward(const PlannableModule& m, ConstMatrixView x,
                      ExecContext& ctx = ExecContext::thread_default()) {
  if (const auto* p = dynamic_cast<const LinearLayer*>(&m)) {
    return linear(*p, x, ctx);
  }
  if (const auto* p = dynamic_cast<const Activation*>(&m)) {
    Matrix y(x.rows(), x.cols());
    copy_into(x, y);
    activate(y, p->activation());
    return y;
  }
  if (const auto* p = dynamic_cast<const LayerNorm*>(&m)) {
    return layernorm(*p, x);
  }
  if (const auto* p = dynamic_cast<const MultiHeadAttention*>(&m)) {
    return attention(*p, x, ctx);
  }
  if (const auto* p = dynamic_cast<const FeedForward*>(&m)) {
    return feed_forward(*p, x, ctx);
  }
  if (const auto* p = dynamic_cast<const EncoderLayer*>(&m)) {
    return encoder_layer(*p, x, ctx);
  }
  if (const auto* p = dynamic_cast<const Lstm*>(&m)) {
    return lstm(p->cell(), x, /*reverse=*/false, ctx);
  }
  if (const auto* p = dynamic_cast<const BiLstm*>(&m)) {
    const Matrix fw = lstm(p->forward_layer().cell(), x, false, ctx);
    const Matrix bw = lstm(p->backward_layer().cell(), x, true, ctx);
    const std::size_t hid = p->hidden_size();
    Matrix y(2 * hid, x.cols());
    copy_into(fw, y.block(0, hid, 0, x.cols()));
    copy_into(bw, y.block(hid, hid, 0, x.cols()));
    return y;
  }
  if (const auto* p = dynamic_cast<const Residual*>(&m)) {
    Matrix y = forward(p->inner(), x, ctx);
    add(y, x);
    return y;
  }
  Matrix cur(x.rows(), x.cols());
  copy_into(x, cur);
  if (const auto* p = dynamic_cast<const TransformerEncoder*>(&m)) {
    for (const EncoderLayer& l : p->layers()) {
      cur = encoder_layer(l, cur, ctx);
    }
    return cur;
  }
  if (const auto* p = dynamic_cast<const Sequential*>(&m)) {
    for (std::size_t i = 0; i < p->size(); ++i) {
      cur = forward((*p)[i], cur, ctx);
    }
    return cur;
  }
  throw std::logic_error("reference::forward: unsupported module type");
}

/// Planned output vs the reference: max-abs difference within 1e-4 of
/// the reference's max-abs value.
inline void expect_matches_reference(ConstMatrixView planned,
                                     ConstMatrixView ref, const char* what) {
  ASSERT_EQ(planned.rows(), ref.rows()) << what;
  ASSERT_EQ(planned.cols(), ref.cols()) << what;
  float diff = 0.0f, scale = 0.0f;
  for (std::size_t c = 0; c < ref.cols(); ++c) {
    for (std::size_t i = 0; i < ref.rows(); ++i) {
      diff = std::max(diff, std::fabs(planned(i, c) - ref(i, c)));
      scale = std::max(scale, std::fabs(ref(i, c)));
    }
  }
  EXPECT_TRUE(std::isfinite(scale)) << what;
  EXPECT_LE(diff, 1e-4f * scale) << what << ": max-abs diff " << diff
                                 << " vs reference max-abs " << scale;
}

}  // namespace biq::nn::reference
