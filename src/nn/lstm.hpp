// LSTM with pluggable projection engines — the ASR workload of the
// paper's Sec. II-C (LAS-style bi-directional encoders with (2.5K x 5K)
// weight matrices). The two big GEMVs per step (input and recurrent
// projections of all four gates) run through LinearLayer, i.e. as
// BiQGEMM when quantized; gate non-linearities stay fp32.
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
  /// One direction's frozen scan over a sequence: the two GEMV plans of
  /// the cell plus planner slots for the gate pre-activations and the
  /// h/c state. Built by plan_scan(); the Lstm/BiLstm module steps
  /// replay it (reverse scans run t = T-1 .. 0).
  class ScanPlan {
   public:
    ScanPlan() = default;

    /// Returns the scan's slots to the planner (they are live only
    /// while the owning module's step runs).
    void release(ModulePlanContext& mpc) const;

    /// x: in x T -> y: h x T, through the frozen GEMV plans and the
    /// cell's apply_gates(). When `xpreps` is non-null it points at T
    /// ready PrepHandles (one per frame, keyed like wx_plan()'s prep)
    /// and the input projection consumes xpreps[t] instead of
    /// rebuilding frame t's artifact — how BiLstm feeds both
    /// directional scans from one prepare per frame.
    void run(float* base, ConstMatrixView x, MatrixView y, bool reverse,
             const PrepHandle* xpreps = nullptr) const;

    /// The frozen input-projection plan (batch 1), exposed so owning
    /// steps can probe prep compatibility and drive the shared prepare.
    [[nodiscard]] const LinearPlan& wx_plan() const noexcept { return wx_; }

   private:
    friend class LstmCell;
    const LstmCell* cell_ = nullptr;
    LinearPlan wx_, wh_;  // gate bias + gx residual ride wh's epilogue
    ModelSlot sgx_, sgh_;  // 4h x 1 gate pre-activations
    ModelSlot sh_, sc_;    // h x 1 hidden / cell state
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
  /// place — the tail of every scan step.
  void apply_gates(const float* pre, float* h, float* c) const noexcept;

  /// Projection layers and bias, for planners freezing the step.
  [[nodiscard]] const LinearLayer& wx() const noexcept { return *wx_; }
  [[nodiscard]] const LinearLayer& wh() const noexcept { return *wh_; }
  [[nodiscard]] const std::vector<float>& gate_bias() const noexcept {
    return bias_;
  }

  /// Freezes one direction's scan: acquires the gate/state slots and
  /// both GEMV plans (batch 1). The slots are left LIVE — the caller
  /// releases via ScanPlan::release() once dependent layouts are done.
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
  /// gate pre-activations + h/c state, reused across all T steps).
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return cell_.input_size();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;
  [[nodiscard]] std::unique_ptr<ModuleStep> plan_into(
      ModulePlanContext& mpc) const override;

 private:
  LstmCell cell_;
};

/// Bidirectional layer: concatenates forward (rows [0, h)) and
/// backward (rows [h, 2h)) hidden states to 2h x T (the LAS encoder
/// building block).
class BiLstm final : public PlannableModule {
 public:
  BiLstm(LstmCell forward_cell, LstmCell backward_cell);

  /// PlannableModule: two cell scans run sequentially; when both input
  /// projections freeze the same activation artifact, each frame's is
  /// built once and consumed by both scans.
  [[nodiscard]] std::size_t in_rows() const noexcept override {
    return fw_.cell().input_size();
  }
  [[nodiscard]] Shape out_shape(Shape in) const override;
  [[nodiscard]] std::unique_ptr<ModuleStep> plan_into(
      ModulePlanContext& mpc) const override;

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
  Lstm fw_, bw_;
};

/// Deterministic factory (same convention as make_encoder): identical
/// fp32 weights for any spec with the same seed.
[[nodiscard]] LstmCell make_lstm_cell(std::size_t input, std::size_t hidden,
                                      std::uint64_t seed,
                                      const QuantSpec& spec);

}  // namespace biq::nn
