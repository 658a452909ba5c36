// The pluggable kernel interface. Every weight-stationary GEMM in the
// library — the paper's BiQGEMM (plain and group-scaled) and all its
// baselines (blocked dense, naive dense, int8, unpack, xnor, tmac-lut) —
// computes the same thing: Y ~= W . X with weights fixed at construction.
// This interface is that contract; `nn` layers, the benches and the
// examples consume kernels exclusively through it (obtained from the
// EngineRegistry), so a new backend plugs into every integration surface
// with one registration.
//
// The contract is two-phase, in the spirit of the paper's Sec. II-A
// (weights are fixed at inference time, so everything derivable before
// the activations arrive is computed once, offline):
//
//   prepare:  plan(batch, ctx) freezes everything that depends only on
//             (engine, batch, execution context) — the dispatched kernel
//             plane, the tile partition, the scratch layout — into a
//             GemmPlan.
//   execute:  plan->run(x, y) is the hot path: shape-check, then straight
//             into the kernels. Warm plans on warm contexts perform zero
//             heap allocations.
//
// Activations and outputs are strided views (matrix/view.hpp): a slice
// of a larger buffer — a column block, an attention-head window — runs
// without being materialized as a dense Matrix. run(x, y, ctx) remains
// as a thin plan-per-call adapter for one-shot callers.
//
// Execution state stays split from the engine: a plan binds the
// ExecContext it was made with (pool, per-worker scratch arenas) and the
// kernel plane that context's ISA resolves to — the GEMM's kernels and
// its epilogue's math both run on it. Engines are immutable after
// construction, so one instance serves many concurrent plans as long as
// each plan brings its own context.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "engine/epilogue.hpp"
#include "engine/exec_context.hpp"
#include "engine/partition.hpp"
#include "matrix/view.hpp"

namespace biq {

/// Identity of a plan's frozen activation-side artifact: the BiQGEMM
/// LUTs a prepare() call builds from one input X. Only the `biqgemm` /
/// `biqgemm-grouped` plans carry one. Weights never enter the artifact,
/// so two plans over DIFFERENT weight matrices share one prepared X
/// whenever their keys compare equal: equal keys promise the same table
/// layout AND the same build arithmetic, bit for bit, so a consume
/// against another plan's prepare is as exact as one against its own.
struct PrepKey {
  /// Static artifact-family tag ("biq-lut", the one family); nullptr =
  /// the plan carries no activation prep.
  const char* kind = nullptr;
  std::size_t cols = 0;   // input features n the artifact covers
  std::size_t batch = 0;  // activation columns it was built for
  /// Resolved kernel plane of the builders (different planes may
  /// interleave tables differently).
  const void* plane = nullptr;
  /// Family parameters (mu / lanes / builder variant). Two keys with
  /// different parameters freeze incompatible artifacts even when the
  /// family matches.
  std::uint32_t p0 = 0;
  std::uint32_t p1 = 0;
  std::uint32_t p2 = 0;

  [[nodiscard]] bool valid() const noexcept { return kind != nullptr; }

  friend bool operator==(const PrepKey& a, const PrepKey& b) noexcept {
    return a.kind != nullptr && b.kind != nullptr &&
           std::string_view(a.kind) == std::string_view(b.kind) &&
           a.cols == b.cols && a.batch == b.batch && a.plane == b.plane &&
           a.p0 == b.p0 && a.p1 == b.p1 && a.p2 == b.p2;
  }
  friend bool operator!=(const PrepKey& a, const PrepKey& b) noexcept {
    return !(a == b);
  }
};

/// A caller-owned slot for one frozen activation artifact. The caller
/// provides storage (>= prep_floats() floats, kDefaultAlignment-aligned
/// — a liveness-planner slot in nn, a plain buffer in tests);
/// plan->prepare(x, handle) fills it and stamps the producing plan's
/// key, and any plan whose prep_key() matches may consume it via
/// plan->run(handle, y). Touching the storage invalidates the artifact
/// until the next prepare().
class PrepHandle {
 public:
  PrepHandle() = default;
  PrepHandle(float* storage, std::size_t floats) noexcept
      : data_(storage), floats_(floats) {}

  [[nodiscard]] float* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t floats() const noexcept { return floats_; }
  /// True once a prepare() has materialized an artifact here.
  [[nodiscard]] bool ready() const noexcept { return ready_; }
  /// Key of the held artifact (meaningful only while ready()).
  [[nodiscard]] const PrepKey& key() const noexcept { return key_; }

 private:
  friend class GemmPlan;  // prepare() stamps key_/ready_
  float* data_ = nullptr;
  std::size_t floats_ = 0;
  PrepKey key_{};
  bool ready_ = false;
};

/// One frozen (engine, batch, ExecContext) execution recipe. Produced by
/// GemmEngine::plan; run() it any number of times against activations of
/// the planned batch width. The plan borrows the engine (packed weights,
/// kernel tables) and the context (pool, arenas): both must outlive it,
/// and a plan may be run by one caller at a time (it owns its context's
/// scratch while running). Re-plan when the batch or the context change —
/// planning is cheap, just not free.
///
/// A plan may carry a fused Epilogue (see engine/epilogue.hpp): bias,
/// activation and/or a residual add applied inside the engine's output
/// loop, bitwise identical to separate post-passes in the same order.
/// Plans frozen with `residual = true` must be run through the 3-arg
/// run(x, y, residual) overload; plans without, through the 2-arg one.
///
/// Plans frozen with an LN stage (ln_gamma/ln_beta set) additionally
/// own a per-column completion barrier, allocated here at plan time so
/// warm runs stay heap-free; each output column is normalized by
/// whichever worker retires its last row tile. In-place LN plans use
/// the usual overloads (y holds the normalized result); ln_split_dst
/// plans must be run through the 4-arg run(x, y, residual, ln_out)
/// overload — y becomes a pre-norm staging block and the normalized
/// columns land in ln_out, which MAY alias the residual operand (every
/// residual read of a column is ordered before that column's LN write
/// by the barrier) but must stay disjoint from y.
class GemmPlan {
 public:
  virtual ~GemmPlan() = default;
  GemmPlan(const GemmPlan&) = delete;
  GemmPlan& operator=(const GemmPlan&) = delete;

  /// The hot path: Y = epilogue(W . X) through the frozen recipe. x must
  /// be cols() x batch(), y rows() x batch() (overwritten); both may be
  /// strided windows of larger buffers. Throws std::invalid_argument
  /// naming the offending dims on any shape/ld mismatch, and if the plan
  /// was frozen with a residual epilogue (use the 3-arg overload).
  void run(ConstMatrixView x, MatrixView y) const {
    validate(x, y);
    if (epilogue_.residual) residual_mismatch(/*provided=*/false);
    if (batch_ == 0 || rows_ == 0) return;
    execute(x, y, make_op(ConstMatrixView(), MatrixView()));
  }

  /// The residual-fused hot path: Y = act(W . X + bias) + residual.
  /// `residual` must be rows() x batch() and must NOT overlap y (engines
  /// accumulate into y in place, so an aliased operand would be read
  /// half-transformed). Only valid on plans frozen with
  /// Epilogue::residual = true; throws std::invalid_argument otherwise
  /// (as do ln_split_dst plans, which need the 4-arg overload).
  void run(ConstMatrixView x, MatrixView y, ConstMatrixView residual) const {
    validate(x, y);
    if (!epilogue_.residual) residual_mismatch(/*provided=*/true);
    if (epilogue_.ln_split_dst) ln_dst_mismatch(/*provided=*/false);
    validate_residual(residual, y);
    if (batch_ == 0 || rows_ == 0) return;
    execute(x, y, make_op(residual, MatrixView()));
  }

  /// Split-destination LN path: Y_stage = act(W . X + bias) + residual,
  /// then each completed column of the staging block is normalized into
  /// ln_out. Only valid on plans frozen with Epilogue::ln_split_dst.
  /// ln_out must be rows() x batch(), disjoint from y; aliasing the
  /// residual operand is explicitly allowed (this is how an encoder
  /// seam writes its final output over the block it read the residual
  /// from, with no intermediate slot).
  void run(ConstMatrixView x, MatrixView y, ConstMatrixView residual,
           MatrixView ln_out) const {
    validate(x, y);
    if (!epilogue_.ln_split_dst) ln_dst_mismatch(/*provided=*/true);
    validate_residual(residual, y);
    validate_ln_out(ln_out, y);
    if (batch_ == 0 || rows_ == 0) return;
    execute(x, y, make_op(residual, ln_out));
  }

  /// Output features m / input features n of the engine's weight matrix.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Batch width this plan was frozen for.
  [[nodiscard]] std::size_t batch() const noexcept { return batch_; }
  /// The execution context the plan is bound to.
  [[nodiscard]] ExecContext& context() const noexcept { return *ctx_; }
  /// Registry name of the engine that produced the plan.
  [[nodiscard]] std::string_view engine_name() const noexcept { return name_; }
  /// The fused epilogue the plan was frozen with (may be empty).
  [[nodiscard]] const Epilogue& epilogue() const noexcept { return epilogue_; }
  /// The kernel plane the context's ISA resolved to when the plan was
  /// compiled: the engine's kernels and the epilogue's math run on it.
  [[nodiscard]] const engine::KernelPlane& plane() const noexcept {
    return *plane_;
  }

  // ------------------------------------------ LUT build / query split
  // BiQGEMM plans expose the paper's Fig. 8 seam: prepare(x, handle)
  // builds every LUT of x once into caller storage (the build alone),
  // and run(handle, y) queries them and writes back (the query alone).
  // Plans with equal prep_key()s accept one prepare. perfbench and the
  // Fig. 8 / LUT-build benches time the two halves; `nn` runs the fused
  // run(x, y), which builds each LUT tile next to its query. Both paths
  // produce bitwise-identical outputs (consume replays execute's
  // accumulation structure exactly). Every other engine reads X directly
  // and carries no prep.

  /// Identity of the artifact this plan builds/consumes (invalid key =
  /// no prep: every non-BiQGEMM engine).
  [[nodiscard]] PrepKey prep_key() const noexcept { return do_prep_key(); }
  /// Floats of caller storage one artifact needs (0 without prep).
  [[nodiscard]] std::size_t prep_floats() const noexcept {
    return do_prep_floats();
  }

  /// Builds this plan's activation artifact from x into `prep`'s
  /// storage and marks the handle ready under this plan's key. x obeys
  /// the same shape contract as run(x, y). Throws std::invalid_argument
  /// when the plan has no prep or the handle's storage is too small.
  /// Warm calls on a warm context perform zero heap allocations.
  void prepare(ConstMatrixView x, PrepHandle& prep) const;

  /// Consume path: Y = epilogue(W . prep) against a ready artifact
  /// whose key matches this plan's prep_key(); bitwise identical to
  /// run(x, y) for the same X. Like run(x, y), it throws on plans frozen
  /// with a residual epilogue: those take the fused run only.
  void run(const PrepHandle& prep, MatrixView y) const {
    validate_y(y);
    if (epilogue_.residual) residual_mismatch(/*provided=*/false);
    validate_prep(prep);
    if (batch_ == 0 || rows_ == 0) return;
    do_consume(prep.data(), y, make_op(ConstMatrixView(), MatrixView()));
  }

 protected:
  /// Resolves the context's kernel plane once (select_plane(ctx.isa()):
  /// throws std::runtime_error when it is unavailable). Throws
  /// std::invalid_argument when the epilogue's LN stage is malformed
  /// (one of gamma/beta missing, ln_dim != rows, ln_split_dst without
  /// residual); allocates the per-column barrier when an LN stage is
  /// present.
  GemmPlan(std::string_view engine_name, std::size_t rows, std::size_t cols,
           std::size_t batch, ExecContext& ctx, const Epilogue& epilogue = {})
      : name_(engine_name), rows_(rows), cols_(cols), batch_(batch),
        ctx_(&ctx), plane_(&engine::select_plane(ctx.isa())),
        epilogue_(epilogue) {
    init_ln();
  }

  /// Engine-specific body; shapes are already validated and non-empty.
  /// `ep` is the run's bound epilogue (possibly empty); the engine must
  /// apply it to every output element exactly once, after that element's
  /// accumulation completes — per tile, per panel or per column, at the
  /// engine's convenience (element-wise, so all choices agree bitwise).
  virtual void execute(ConstMatrixView x, MatrixView y,
                       const EpilogueOp& ep) const = 0;

  // Prep hooks. The defaults declare "no activation prep"; the BiQGEMM
  // plan overrides all four together. do_prepare/do_consume receive
  // pre-validated arguments and must be bitwise consistent with execute:
  // consume replays the exact accumulation structure (chunking, tile
  // order, float summation grouping) of execute minus the build.
  [[nodiscard]] virtual PrepKey do_prep_key() const noexcept { return {}; }
  [[nodiscard]] virtual std::size_t do_prep_floats() const noexcept {
    return 0;
  }
  virtual void do_prepare(ConstMatrixView x, float* prep) const;
  virtual void do_consume(const float* prep, MatrixView y,
                          const EpilogueOp& ep) const;

 private:
  void validate(ConstMatrixView x, MatrixView y) const;
  void validate_y(MatrixView y) const;
  void validate_prep(const PrepHandle& prep) const;
  void validate_residual(ConstMatrixView residual, MatrixView y) const;
  void validate_ln_out(MatrixView ln_out, MatrixView y) const;
  void init_ln();
  [[noreturn]] void residual_mismatch(bool provided) const;
  [[noreturn]] void ln_dst_mismatch(bool provided) const;
  [[noreturn]] void no_prep() const;

  /// Binds the frozen epilogue (plus the plan-owned column barrier for
  /// LN plans) to one run's residual / ln destination operands.
  [[nodiscard]] EpilogueOp make_op(ConstMatrixView residual,
                                   MatrixView ln_dst) const noexcept {
    if (epilogue_.ln_gamma == nullptr) {
      return EpilogueOp(epilogue_, residual, plane_->math);
    }
    return EpilogueOp(epilogue_, residual, plane_->math, col_barrier_.data(),
                      rows_, ln_dst);
  }

  std::string_view name_;  // points at the engine's static name
  std::size_t rows_;
  std::size_t cols_;
  std::size_t batch_;
  ExecContext* ctx_;
  const engine::KernelPlane* plane_;
  Epilogue epilogue_;
  engine::ColBarrier col_barrier_;  // one counter per column; LN plans only
};

class GemmEngine;

/// One part of a row stack (plan_stack): an engine and the epilogue its
/// rows take. The epilogue may add a bias and apply an activation; a
/// stack takes no residual operand and no LayerNorm stage.
struct StackPart {
  const GemmEngine* engine = nullptr;
  Epilogue epilogue;
};

/// One plan over a row stack of engines that read the same x: its y is
/// the parts' outputs stacked by rows (sum of their rows() x batch),
/// and each part's row block is bitwise what that engine's own
/// plan(batch, ctx, part.epilogue) writes. An engine that can serve the
/// whole stack as one recipe does so (BiQGEMM stages and builds each LUT
/// chunk of x once and queries every part's keys against it); any other
/// stack runs its parts' plans one after another under the same call.
/// A one-part stack is that engine's plain plan. No weight is copied:
/// the engines must outlive the plan, as must every part's bias. Throws
/// std::invalid_argument on an empty stack, a null engine, parts of
/// different cols(), or a residual / LayerNorm epilogue.
[[nodiscard]] std::unique_ptr<GemmPlan> plan_stack(
    std::span<const StackPart> parts, std::size_t batch, ExecContext& ctx);

class GemmEngine {
 public:
  virtual ~GemmEngine() = default;

  /// Freezes the execution recipe for `batch` activation columns under
  /// `ctx` (which supplies the pool, scratch arenas and optional ISA
  /// override — see exec_context.hpp), with `epilogue` fused into the
  /// output loop. The engine and ctx must outlive the plan; so must
  /// epilogue.bias when set. batch == 1 plans the kernel-specific GEMV
  /// fast path.
  [[nodiscard]] virtual std::unique_ptr<GemmPlan> plan(
      std::size_t batch, ExecContext& ctx, const Epilogue& epilogue) const = 0;

  /// Epilogue-free planning — the common case for raw GEMM callers.
  [[nodiscard]] std::unique_ptr<GemmPlan> plan(std::size_t batch,
                                               ExecContext& ctx) const {
    return plan(batch, ctx, Epilogue{});
  }

  /// One-shot adapter: plan for x.cols() under ctx, run once, discard.
  /// Bitwise identical to plan()->run() — it IS plan()->run(). Callers
  /// multiplying the same batch width repeatedly should hold the plan.
  void run(ConstMatrixView x, MatrixView y, ExecContext& ctx) const {
    plan(x.cols(), ctx)->run(x, y);
  }

  /// Serial convenience form: forwards to the calling thread's default
  /// context (warm scratch, no pool). Safe from any thread.
  void run(ConstMatrixView x, MatrixView y) const {
    run(x, y, ExecContext::thread_default());
  }

  /// Output features m / input features n of the packed weight matrix.
  [[nodiscard]] virtual std::size_t rows() const noexcept = 0;
  [[nodiscard]] virtual std::size_t cols() const noexcept = 0;

  /// Bytes of weight data inference reads per run (packed form for
  /// quantized engines — the Table II accounting).
  [[nodiscard]] virtual std::size_t weight_bytes() const noexcept = 0;

  /// Stable registry name ("biqgemm", "blocked", ...), used by the bench
  /// tables and the examples for uniform reporting.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// plan_stack's hook, asked of the first part's engine with the
  /// already-validated parts: one recipe for the whole stack that shares
  /// the x-side work, or nullptr (the default) when this engine has none
  /// for these parts, in which case the parts run one after another.
  [[nodiscard]] virtual std::unique_ptr<GemmPlan> plan_shared_stack(
      std::span<const StackPart> /*parts*/, std::size_t /*batch*/,
      ExecContext& /*ctx*/) const {
    return nullptr;
  }
};

}  // namespace biq
