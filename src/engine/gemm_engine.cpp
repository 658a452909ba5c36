#include "engine/gemm_engine.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace biq {
namespace {

/// A row stack whose engines share no work: each part's own plan runs
/// on its row block of y, in stack order.
class SequentialStackPlan final : public GemmPlan {
 public:
  SequentialStackPlan(std::span<const StackPart> parts, std::size_t rows,
                      std::size_t batch, ExecContext& ctx)
      : GemmPlan(parts.front().engine->name(), rows,
                 parts.front().engine->cols(), batch, ctx) {
    parts_.reserve(parts.size());
    for (const StackPart& p : parts) {
      parts_.push_back(p.engine->plan(batch, ctx, p.epilogue));
    }
  }

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& /*ep*/) const override {
    std::size_t row0 = 0;
    for (const auto& p : parts_) {
      p->run(x, y.block(row0, p->rows(), 0, batch()));
      row0 += p->rows();
    }
  }

  std::vector<std::unique_ptr<GemmPlan>> parts_;
};

std::string dims(ConstMatrixView v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zux%zu (ld %zu)", v.rows(), v.cols(),
                v.ld());
  return buf;
}

}  // namespace

std::unique_ptr<GemmPlan> plan_stack(std::span<const StackPart> parts,
                                     std::size_t batch, ExecContext& ctx) {
  if (parts.empty()) throw std::invalid_argument("plan_stack: no parts");
  std::size_t rows = 0;
  for (const StackPart& p : parts) {
    const char* what = nullptr;
    const Epilogue& ep = p.epilogue;
    if (p.engine == nullptr) {
      what = "a part has no engine";
    } else if (p.engine->cols() != parts.front().engine->cols()) {
      what = "parts read x of different heights";
    } else if (ep.residual || ep.ln_gamma != nullptr ||
               ep.ln_beta != nullptr || ep.ln_split_dst) {
      what = "a part's epilogue has a residual or LayerNorm stage";
    }
    if (what != nullptr) {
      throw std::invalid_argument(std::string("plan_stack: ") + what);
    }
    rows += p.engine->rows();
  }
  if (parts.size() == 1) {
    return parts.front().engine->plan(batch, ctx, parts.front().epilogue);
  }
  std::unique_ptr<GemmPlan> shared =
      parts.front().engine->plan_shared_stack(parts, batch, ctx);
  if (shared != nullptr) return shared;
  return std::make_unique<SequentialStackPlan>(parts, rows, batch, ctx);
}

void GemmPlan::validate(ConstMatrixView x, MatrixView y) const {
  const char* what = nullptr;
  if (x.rows() != cols_ || x.cols() != batch_) {
    what = "x";
  } else if (y.rows() != rows_ || y.cols() != batch_) {
    what = "y";
  } else if (x.ld() < x.rows()) {
    what = "x.ld";
  } else if (y.ld() < y.rows()) {
    what = "y.ld";
  }
  if (what == nullptr) return;
  std::string msg(name_);
  msg += " plan: bad ";
  msg += what;
  msg += ": x is " + dims(x) + ", y is " + dims(y) + "; planned for x " +
         std::to_string(cols_) + "x" + std::to_string(batch_) + ", y " +
         std::to_string(rows_) + "x" + std::to_string(batch_) +
         " (ld >= rows)";
  throw std::invalid_argument(msg);
}

void GemmPlan::validate_residual(ConstMatrixView residual,
                                 MatrixView y) const {
  const char* what = nullptr;
  if (residual.rows() != rows_ || residual.cols() != batch_) {
    what = "residual";
  } else if (residual.ld() < residual.rows()) {
    what = "residual.ld";
  } else if (rows_ != 0 && batch_ != 0) {
    // The residual is read while y is being transformed in place, so any
    // overlap of the two spans would feed half-transformed values back
    // into the epilogue.
    const float* rlo = residual.data();
    const float* rhi = residual.col(batch_ - 1) + rows_;
    const float* ylo = y.data();
    const float* yhi = y.col(batch_ - 1) + rows_;
    if (rlo < yhi && ylo < rhi) what = "residual (overlaps y)";
  }
  if (what == nullptr) return;
  std::string msg(name_);
  msg += " plan: bad ";
  msg += what;
  msg += ": residual is " + dims(residual) + "; planned for " +
         std::to_string(rows_) + "x" + std::to_string(batch_) +
         " (ld >= rows, disjoint from y)";
  throw std::invalid_argument(msg);
}

void GemmPlan::validate_ln_out(MatrixView ln_out, MatrixView y) const {
  const char* what = nullptr;
  if (ln_out.rows() != rows_ || ln_out.cols() != batch_) {
    what = "ln_out";
  } else if (ln_out.ld() < ln_out.rows()) {
    what = "ln_out.ld";
  } else if (rows_ != 0 && batch_ != 0) {
    // The staging block y must survive untouched until every column's
    // normalize has read it, so ln_out may not overlap y. (Aliasing the
    // residual is fine — the barrier orders all residual reads of a
    // column before that column's normalized write.)
    const float* llo = ln_out.data();
    const float* lhi = ln_out.col(batch_ - 1) + rows_;
    const float* ylo = y.data();
    const float* yhi = y.col(batch_ - 1) + rows_;
    if (llo < yhi && ylo < lhi) what = "ln_out (overlaps y)";
  }
  if (what == nullptr) return;
  std::string msg(name_);
  msg += " plan: bad ";
  msg += what;
  msg += ": ln_out is " + dims(ln_out) + "; planned for " +
         std::to_string(rows_) + "x" + std::to_string(batch_) +
         " (ld >= rows, disjoint from y)";
  throw std::invalid_argument(msg);
}

void GemmPlan::init_ln() {
  const Epilogue& ep = epilogue_;
  if (ep.ln_gamma == nullptr && ep.ln_beta == nullptr && !ep.ln_split_dst) {
    return;
  }
  const char* what = nullptr;
  if ((ep.ln_gamma == nullptr) != (ep.ln_beta == nullptr)) {
    what = "LN epilogue needs both ln_gamma and ln_beta (one is null)";
  } else if (ep.ln_gamma == nullptr) {
    what = "ln_split_dst set without an LN stage (ln_gamma/ln_beta are null)";
  } else if (ep.ln_dim != rows_) {
    what = "ln_dim must equal the plan's output rows";
  } else if (ep.ln_split_dst && !ep.residual) {
    what = "ln_split_dst requires a residual epilogue (it exists so the "
           "residual may alias the normalized destination)";
  }
  if (what == nullptr) {
    col_barrier_ = engine::ColBarrier(batch_);
    return;
  }
  std::string msg(name_);
  msg += " plan: ";
  msg += what;
  msg += " (ln_dim " + std::to_string(ep.ln_dim) + ", rows " +
         std::to_string(rows_) + ")";
  throw std::invalid_argument(msg);
}

void GemmPlan::prepare(ConstMatrixView x, PrepHandle& prep) const {
  const PrepKey key = do_prep_key();
  if (!key.valid()) no_prep();
  if (x.rows() != cols_ || x.cols() != batch_ || x.ld() < x.rows()) {
    std::string msg(name_);
    msg += " plan: bad x for prepare: x is " + dims(x) + "; planned for " +
           std::to_string(cols_) + "x" + std::to_string(batch_) +
           " (ld >= rows)";
    throw std::invalid_argument(msg);
  }
  const std::size_t need = do_prep_floats();
  if (prep.data() == nullptr || prep.floats() < need) {
    std::string msg(name_);
    msg += " plan: prep handle holds " + std::to_string(prep.floats()) +
           " floats; prepare needs " + std::to_string(need);
    throw std::invalid_argument(msg);
  }
  if (batch_ != 0 && cols_ != 0) do_prepare(x, prep.data());
  prep.key_ = key;
  prep.ready_ = true;
}

void GemmPlan::validate_y(MatrixView y) const {
  if (y.rows() == rows_ && y.cols() == batch_ && y.ld() >= y.rows()) return;
  std::string msg(name_);
  msg += " plan: bad y: y is " + dims(y) + "; planned for " +
         std::to_string(rows_) + "x" + std::to_string(batch_) +
         " (ld >= rows)";
  throw std::invalid_argument(msg);
}

void GemmPlan::validate_prep(const PrepHandle& prep) const {
  const PrepKey key = do_prep_key();
  if (!key.valid()) no_prep();
  if (!prep.ready()) {
    std::string msg(name_);
    msg += " plan: prep handle is not ready — call prepare() first";
    throw std::invalid_argument(msg);
  }
  if (prep.key() != key) {
    std::string msg(name_);
    msg += " plan: prep artifact '";
    msg += prep.key().kind != nullptr ? prep.key().kind : "(none)";
    msg += "' was built by an incompatible plan (this plan freezes '";
    msg += key.kind;
    msg += "' with different parameters)";
    throw std::invalid_argument(msg);
  }
}

void GemmPlan::do_prepare(ConstMatrixView, float*) const { no_prep(); }

void GemmPlan::do_consume(const float*, MatrixView, const EpilogueOp&) const {
  no_prep();
}

void GemmPlan::no_prep() const {
  std::string msg(name_);
  msg += " plan carries no activation prep (its prep_key() is invalid)";
  throw std::invalid_argument(msg);
}

void GemmPlan::residual_mismatch(bool provided) const {
  std::string msg(name_);
  msg += provided
             ? " plan: residual operand given, but the plan was not frozen "
               "with a residual epilogue"
             : " plan: frozen with a residual epilogue; use "
               "run(x, y, residual)";
  throw std::invalid_argument(msg);
}

void GemmPlan::ln_dst_mismatch(bool provided) const {
  std::string msg(name_);
  msg += provided
             ? " plan: ln_out operand given, but the plan was not frozen "
               "with a split-destination LN epilogue"
             : " plan: frozen with a split-destination LN epilogue; use "
               "run(x, y, residual, ln_out)";
  throw std::invalid_argument(msg);
}

}  // namespace biq
