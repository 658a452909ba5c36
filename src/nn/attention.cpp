#include "nn/attention.hpp"

#include <cmath>
#include <stdexcept>

#include "engine/dispatch.hpp"

namespace biq::nn {
namespace {

/// One attention block's frozen forward: one plan for the Q, K and V
/// projections stacked by rows (each LUT chunk of x built once for all
/// three when the engine can share it), the output projection's plan,
/// and the planner slots for the stacked q/k/v, the score matrix and the
/// head context, all served from the arena.
class AttentionStep final : public ModuleStep {
 public:
  AttentionStep(const MultiHeadAttention& attn, ModulePlanContext& mpc,
                const Epilogue& fold)
      : attn_(&attn) {
    const std::size_t tokens = mpc.batch();
    sqkv_ = mpc.acquire(3 * attn.hidden(), tokens);
    const LinearLayer* qkv[] = {&attn.wq(), &attn.wk(), &attn.wv()};
    qkv_ = LinearLayer::plan_stack(qkv, tokens, mpc.exec());
    sscores_ = mpc.acquire(tokens, tokens);
    scontext_ = mpc.acquire(attn.hidden(), tokens);
    // The requested fold rides the output projection's epilogue: the
    // block's input x is bound as the residual operand at run time, and
    // a folded LayerNorm normalizes each of y's columns in place as wo's
    // GEMM completes them.
    o_ = attn.wo().plan(tokens, mpc.exec(), fold);
    for (const ModelSlot* s : {&sscores_, &sqkv_, &scontext_}) {
      mpc.release(*s);
    }
  }

  void run_step(float* base, ConstMatrixView x, MatrixView y) const override {
    const MatrixView qkv = sqkv_.view(base);
    qkv_->run(x, qkv);
    const std::size_t d = attn_->hidden();
    const std::size_t t = x.cols();
    const MatrixView context = scontext_.view(base);
    // The head math runs on the plane the projections were planned on.
    attn_->attend(qkv.block(0, d, 0, t), qkv.block(d, d, 0, t),
                  qkv.block(2 * d, d, 0, t), sscores_.view(base), context,
                  o_->plane().math);
    if (o_->epilogue().residual) {
      o_->run(context, y, x);  // y = wo(context) + bias + x, one pass
    } else {
      o_->run(context, y);
    }
  }

 private:
  const MultiHeadAttention* attn_;
  std::unique_ptr<GemmPlan> qkv_, o_;
  ModelSlot sqkv_, sscores_, scontext_;
};

}  // namespace

Shape MultiHeadAttention::out_shape(Shape in) const {
  check_in_rows(in, "MultiHeadAttention");
  return in;
}

bool MultiHeadAttention::supports_fusion(const Epilogue& fold) const noexcept {
  if (fold.ln_split_dst) return false;
  return fold.ln_dim == 0 || fold.ln_dim == hidden_;
}

std::unique_ptr<ModuleStep> MultiHeadAttention::do_plan_into(
    ModulePlanContext& mpc, const Epilogue& fold) const {
  return std::make_unique<AttentionStep>(*this, mpc, fold);
}

MultiHeadAttention::MultiHeadAttention(std::unique_ptr<LinearLayer> wq,
                                       std::unique_ptr<LinearLayer> wk,
                                       std::unique_ptr<LinearLayer> wv,
                                       std::unique_ptr<LinearLayer> wo,
                                       unsigned heads)
    : hidden_(wq->out_features()), heads_(heads),
      head_dim_(heads == 0 ? 0 : hidden_ / heads), wq_(std::move(wq)),
      wk_(std::move(wk)), wv_(std::move(wv)), wo_(std::move(wo)) {
  if (heads_ == 0 || hidden_ % heads_ != 0) {
    throw std::invalid_argument("MultiHeadAttention: heads must divide hidden");
  }
  for (const LinearLayer* p :
       {wq_.get(), wk_.get(), wv_.get(), wo_.get()}) {
    if (p->in_features() != hidden_ || p->out_features() != hidden_) {
      throw std::invalid_argument("MultiHeadAttention: projections must be square");
    }
  }
}

std::size_t MultiHeadAttention::weight_bytes() const noexcept {
  return wq_->weight_bytes() + wk_->weight_bytes() + wv_->weight_bytes() +
         wo_->weight_bytes();
}

void MultiHeadAttention::attend(ConstMatrixView q, ConstMatrixView k,
                                ConstMatrixView v, MatrixView scores,
                                MatrixView context,
                                const engine::MathKernels& math) const {
  const std::size_t t = q.cols();
  if (q.rows() != hidden_ || k.rows() != hidden_ || v.rows() != hidden_ ||
      k.cols() != t || v.cols() != t || context.rows() != hidden_ ||
      context.cols() != t || scores.rows() != t || scores.cols() != t) {
    throw std::invalid_argument("MultiHeadAttention::attend: shape mismatch");
  }
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (unsigned h = 0; h < heads_; ++h) {
    // Each head is a strided row window of the packed projections — it
    // never exists as its own dense buffer.
    const std::size_t r0 = h * head_dim_;
    math.attend_head(q.block(r0, head_dim_, 0, t), k.block(r0, head_dim_, 0, t),
                     v.block(r0, head_dim_, 0, t), inv_sqrt_d, scores,
                     context.block(r0, head_dim_, 0, t));
  }
}

}  // namespace biq::nn
