// LSTM with pluggable projection engines — the ASR workload of the
// paper's Sec. II-C (LAS-style bi-directional encoders with (2.5K x 5K)
// weight matrices). The input projection of all four gates runs once
// over every frame as a batch-T GEMM, the recurrent projection as one
// GEMV per step, both through LinearLayer, i.e. as BiQGEMM when
// quantized; gate non-linearities stay fp32.
#pragma once

#include <memory>
#include <vector>

#include "matrix/matrix.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace biq::nn {

/// Single LSTM cell. Gate layout along the 4h output rows: input i,
/// forget f, candidate g, output o (rows [0,h), [h,2h), [2h,3h), [3h,4h)).
class LstmCell {
 public:
  /// One direction's frozen scan over a sequence: the input projection
  /// planned over all T frames, the recurrent GEMV plan, and planner
  /// slots for the gate pre-activations and the h/c state. Built by
  /// plan_scan(); the Lstm/BiLstm module steps replay it (reverse scans
  /// run t = T-1 .. 0).
  class ScanPlan {
   public:
    ScanPlan() = default;

    /// x: in x T -> y: h x T. One batch-T GEMM projects every frame
    /// (gx = Wx.x), then each step runs the recurrent GEMV with gx's
    /// column t as its residual and the cell's apply_gates().
    void run(float* base, ConstMatrixView x, MatrixView y,
             bool reverse) const;

   private:
    friend class LstmCell;
    const LstmCell* cell_ = nullptr;
    // Gate bias + gx residual ride wh's epilogue; the gates run on wh's
    // math plane.
    std::unique_ptr<GemmPlan> wx_, wh_;
    ModelSlot sgx_;       // 4h x T input projections of every frame
    ModelSlot sgh_;       // 4h x 1 combined gate pre-activations
    ModelSlot sh_, sc_;   // h x 1 hidden / cell state
  };

  /// input_proj: (4h x in), recurrent_proj: (4h x h), bias length 4h.
  LstmCell(std::unique_ptr<LinearLayer> input_proj,
           std::unique_ptr<LinearLayer> recurrent_proj,
           std::vector<float> bias);

  [[nodiscard]] std::size_t input_size() const noexcept { return in_; }
  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_; }
  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    return wx_->weight_bytes() + wh_->weight_bytes();
  }

  /// The gate non-linearities over the COMBINED pre-activations
  /// pre = (Wh.h + bias) + Wx.x_t (length 4h), updating h and c in
  /// place on the math plane `math` — the tail of every scan step.
  void apply_gates(const float* pre, float* h, float* c,
                   const engine::MathKernels& math) const noexcept;

  /// Projection layers and bias, for planners freezing the step.
  [[nodiscard]] const LinearLayer& wx() const noexcept { return *wx_; }
  [[nodiscard]] const LinearLayer& wh() const noexcept { return *wh_; }
  [[nodiscard]] const std::vector<float>& gate_bias() const noexcept {
    return bias_;
  }

  /// Freezes one direction's scan at mpc.batch() frames: Wx planned at
  /// batch T, Wh at batch 1. The gate/state slots are acquired and
  /// released here — they live only while the scan runs.
  [[nodiscard]] ScanPlan plan_scan(ModulePlanContext& mpc) const;

 private:
  std::size_t in_, hidden_;
  std::unique_ptr<LinearLayer> wx_, wh_;
  std::vector<float> bias_;
};

/// Unidirectional layer: runs the cell over a sequence. x: in x T ->
/// y: hidden x T, y[:, t] the hidden state after step t; initial h and
/// c are zero.
class Lstm final : public PlannableModule {
 public:
  explicit Lstm(LstmCell cell) : cell_(std::move(cell)) {}

  [[nodiscard]] const LstmCell& cell() const noexcept { return cell_; }

  /// PlannableModule: the frozen step is one cell scan (internal slots:
  /// every frame's input projection, plus the gate pre-activations and
  /// h/c state reused across all T steps).
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return cell_.input_size();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  LstmCell cell_;
};

/// Bidirectional layer: concatenates forward (rows [0, h)) and
/// backward (rows [h, 2h)) hidden states to 2h x T (the LAS encoder
/// building block).
class BiLstm final : public PlannableModule {
 public:
  BiLstm(LstmCell forward_cell, LstmCell backward_cell);

  /// PlannableModule: two cell scans run sequentially, so the backward
  /// scan's slots reuse the forward scan's storage.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return fw_.cell().input_size();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;

  [[nodiscard]] std::size_t hidden_size() const noexcept {
    return fw_.cell().hidden_size();
  }
  [[nodiscard]] std::size_t weight_bytes() const noexcept {
    return fw_.cell().weight_bytes() + bw_.cell().weight_bytes();
  }

  /// Per-direction layers, for planners freezing the whole pass.
  [[nodiscard]] const Lstm& forward_layer() const noexcept { return fw_; }
  [[nodiscard]] const Lstm& backward_layer() const noexcept { return bw_; }

 private:
  [[nodiscard]] std::unique_ptr<ModuleStep> do_plan_into(
      ModulePlanContext& mpc, const Epilogue& fold) const override;

  Lstm fw_, bw_;
};

/// Deterministic factory (same convention as make_encoder): identical
/// fp32 weights for any spec with the same seed.
[[nodiscard]] LstmCell make_lstm_cell(std::size_t input, std::size_t hidden,
                                      std::uint64_t seed,
                                      const QuantSpec& spec);

}  // namespace biq::nn
