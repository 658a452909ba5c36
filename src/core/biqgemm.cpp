#include "core/biqgemm.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/biqgemv.hpp"
#include "core/lut_builder.hpp"
#include "engine/dispatch.hpp"
#include "engine/partition.hpp"
#include "engine/plan_driver.hpp"

namespace biq {
namespace {

/// Per-worker scratch for one batch tile, carved from the worker's
/// ExecContext arena — pointers are valid until that arena's next
/// reset(), and a warm arena serves them without touching the heap.
/// `build` false (the prepared-LUT consume path) skips the stage/build
/// buffers: the LUTs arrive prebuilt, only the ytile accumulator is
/// needed.
struct Scratch {
  Scratch(ScratchArena& arena, const TilePlan& plan, std::size_t m,
          unsigned mu, bool build)
      : xt(build ? arena.alloc<float>(plan.tables_per_tile * mu * plan.lanes)
                 : nullptr),
        lut(build ? arena.alloc<float>(plan.tables_per_tile *
                                       (std::size_t{1} << mu) * plan.lanes)
                  : nullptr),
        ytile(arena.alloc<float>(m * plan.lanes)) {}

  float* xt;
  float* lut;
  float* ytile;
};

/// Stages x sub-vectors for tables [t0, t0+tcount) x columns
/// [c0, c0+lanes) into the interleaved layout xt[(g*mu+j)*lanes + lane],
/// zero-padding rows past n (the tail-group guarantee).
void stage_x_tile(ConstMatrixView x, std::size_t c0, std::size_t lanes,
                  std::size_t t0, std::size_t tcount, unsigned mu, float* xt) {
  const std::size_t n = x.rows();
  for (std::size_t g = 0; g < tcount; ++g) {
    for (unsigned j = 0; j < mu; ++j) {
      const std::size_t row = (t0 + g) * mu + j;
      float* dst = xt + (g * mu + j) * lanes;
      if (row < n) {
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          dst[lane] = x(row, c0 + lane);
        }
      } else {
        for (std::size_t lane = 0; lane < lanes; ++lane) dst[lane] = 0.0f;
      }
    }
  }
}

struct KernelArgs {
  const std::vector<KeyMatrix>* keys;
  const std::vector<std::vector<float>>* alphas;
  /// Scale columns per row and inputs per scale column: the tile whose
  /// first table is t0 reads alphas[q][i * num_groups + t0 * mu /
  /// group_size] (column 0 for per-row scales, where group_size = n).
  std::size_t num_groups, group_size;
  ConstMatrixView x;
  MatrixView y;
  std::size_t m, n, b, ntables;
  unsigned mu;
  bool use_dp;
  TilePlan plan;
  const engine::BiqKernels* kernels;  // ISA plane resolved at construction
  const EpilogueOp* ep;               // fused output transform (may be empty)
  /// Non-null = prepared-LUT consume: the full LUT artifact, batch tile t
  /// at prep + t * ntables * 2^mu * plan.lanes, table g of a chunk at
  /// chunk_base + g * 2^mu * lanes (the layout build_tile emits). x is
  /// then unused and the stage/build phases are skipped.
  const float* prep = nullptr;
};

void build_tile(const engine::BiqKernels& kernels, const float* xt, float* lut,
                std::size_t tcount, unsigned mu, std::size_t lanes,
                bool use_dp) {
  const std::size_t table_stride = (std::size_t{1} << mu) * lanes;
  for (std::size_t g = 0; g < tcount; ++g) {
    if (use_dp) {
      kernels.build_dp(xt + g * mu * lanes, mu, lanes, lut + g * table_stride);
    } else {
      kernels.build_mm(xt + g * mu * lanes, mu, lanes, lut + g * table_stride);
    }
  }
}

/// `row_ctx` non-null parallelizes the query phase over output-row
/// blocks through the shared partitioner (the small-batch regime);
/// null keeps the tile on one worker (the tile-parallel regime).
template <typename KeyT>
void run_one_batch_tile(const KernelArgs& a, std::size_t c0, std::size_t lanes,
                        Scratch& scratch, ExecContext* row_ctx) {
  float* ytile = scratch.ytile;
  std::fill(ytile, ytile + a.m * lanes, 0.0f);

  engine::QueryTileArgs q;
  q.keys = a.keys->data();
  q.num_planes = a.keys->size();
  q.alphas = a.alphas->empty() ? nullptr : a.alphas->data();
  q.alpha_stride = a.num_groups;
  q.mu = a.mu;
  q.lut = scratch.lut;
  q.ytile = ytile;
  q.lanes = lanes;
  const auto query_fn = sizeof(KeyT) == 1 ? a.kernels->query_tile_u8
                                          : a.kernels->query_tile_u16;

  const std::size_t entries = std::size_t{1} << a.mu;
  const float* prep_block =
      a.prep == nullptr
          ? nullptr
          : a.prep + (c0 / a.plan.lanes) * a.ntables * entries * a.plan.lanes;

  for (std::size_t t0 = 0; t0 < a.ntables; t0 += a.plan.tables_per_tile) {
    const std::size_t tcount = std::min(a.plan.tables_per_tile, a.ntables - t0);

    if (a.prep == nullptr) {
      stage_x_tile(a.x, c0, lanes, t0, tcount, a.mu, scratch.xt);
      build_tile(*a.kernels, scratch.xt, scratch.lut, tcount, a.mu, lanes,
                 a.use_dp);
    } else {
      // Prebuilt chunk: same table layout build_tile would have written,
      // so the query kernel is untouched and the accumulation replays
      // the fused path bit for bit.
      q.lut = prep_block + t0 * entries * lanes;
    }
    q.t0 = t0;
    q.tcount = tcount;
    q.alpha_offset = t0 * a.mu / a.group_size;
    if (row_ctx != nullptr && row_ctx->worker_count() > 1) {
      engine::for_each_tile(*row_ctx, a.m, a.plan.row_block,
                            [&](unsigned /*worker*/, std::size_t lo,
                                std::size_t hi) {
                              engine::QueryTileArgs part = q;
                              part.i0 = lo;
                              part.i1 = hi;
                              query_fn(part);
                            });
    } else {
      q.i0 = 0;
      q.i1 = a.m;
      query_fn(q);
    }
  }

  // Write-back from the interleaved tile into y columns — the moment
  // the tile is complete and still hot. The fused epilogue merges into
  // the de-interleave itself (the bias add — and, for activation-free
  // epilogues, the residual add — ride the copy's store), so fusion
  // costs no extra pass over y; an unfused plan pays those terms as
  // separate re-streaming passes afterwards.
  if (a.ep->empty()) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      float* ycol = a.y.col(c0 + lane);
      for (std::size_t i = 0; i < a.m; ++i) ycol[i] = ytile[i * lanes + lane];
    }
  } else {
    a.ep->apply_interleaved(a.y, ytile, a.m, lanes, c0);
  }
}

template <typename KeyT>
void run_kernel(const KernelArgs& args, ExecContext& ctx) {
  const std::size_t b = args.b;
  const std::size_t lanes_max = args.plan.lanes;
  const std::size_t ntiles = (b + lanes_max - 1) / lanes_max;

  // Orchestration (prewarm -> dynamic batch-tile queue -> row-split
  // fallback) lives in the shared driver; this kernel contributes only
  // its scratch layout and per-tile body.
  engine::drive_batch_tiles(
      ctx, ntiles,
      [&](ScratchArena& arena) {
        return Scratch(arena, args.plan, args.m, args.mu,
                       /*build=*/args.prep == nullptr);
      },
      [&](Scratch& scratch, std::size_t t, ExecContext* row_ctx) {
        const std::size_t c0 = t * lanes_max;
        run_one_batch_tile<KeyT>(args, c0, std::min(lanes_max, b - c0),
                                 scratch, row_ctx);
      });
}

/// Builds the full batched LUT artifact (every batch tile's interleaved
/// tables) into `prep`, layout as documented on KernelArgs::prep. Uses
/// the same stage_x_tile/build_tile bodies as the fused path, so table
/// contents are bitwise what execute would stream chunk by chunk.
void run_prepare_kernel(ConstMatrixView x, float* prep, std::size_t ntables,
                        unsigned mu, bool use_dp, const TilePlan& plan,
                        const engine::BiqKernels& kernels, ExecContext& ctx) {
  const std::size_t b = x.cols();
  const std::size_t lanes_max = plan.lanes;
  const std::size_t ntiles = (b + lanes_max - 1) / lanes_max;
  const std::size_t entries = std::size_t{1} << mu;
  struct PrepScratch {
    float* xt;
  };
  engine::drive_batch_tiles(
      ctx, ntiles,
      [&](ScratchArena& arena) {
        return PrepScratch{
            arena.alloc<float>(plan.tables_per_tile * mu * plan.lanes)};
      },
      [&](PrepScratch& s, std::size_t t, ExecContext* /*row_ctx*/) {
        const std::size_t c0 = t * lanes_max;
        const std::size_t lanes = std::min(lanes_max, b - c0);
        float* block = prep + t * ntables * entries * lanes_max;
        for (std::size_t t0 = 0; t0 < ntables; t0 += plan.tables_per_tile) {
          const std::size_t tcount = std::min(plan.tables_per_tile,
                                              ntables - t0);
          stage_x_tile(x, c0, lanes, t0, tcount, mu, s.xt);
          build_tile(kernels, s.xt, block + t0 * entries * lanes, tcount, mu,
                     lanes, use_dp);
        }
      });
}

/// The frozen (shape, options, context) recipe behind BiqGemm::plan.
/// Everything derivable before the activations arrive is resolved here,
/// once: the kernel plane (construction default or ctx override), the
/// tile geometry, and — batch > 1 — the KernelArgs skeleton. With more
/// than one scale group, a LUT tile is exactly one group, so each
/// tile's hits share one alpha per (plane, row).
class BiqGemmPlan final : public GemmPlan {
 public:
  BiqGemmPlan(const BiqGemm& engine, const std::vector<KeyMatrix>& keys,
              const std::vector<std::vector<float>>& alphas,
              const BiqGemmOptions& opt, const engine::BiqKernels& kernels,
              std::size_t batch, ExecContext& ctx, const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        keys_(&keys), alphas_(&alphas), opt_(&opt), kernels_(&kernels),
        num_groups_(engine.num_groups()), group_size_(engine.group_size()),
        tile_plan_(plan_tiles(engine.rows(), batch, opt, kernels.query_lanes)),
        ntables_(table_count(engine.cols(), opt.mu)),
        gemv_(batch == 1 && num_groups_ <= 1) {
    if (num_groups_ > 1) tile_plan_.tables_per_tile = group_size_ / opt.mu;
  }

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    if (gemv_) {
      biqgemv_packed(*keys_, *alphas_, x.col(0), y.col(0), rows(), cols(),
                     *opt_, context(), *kernels_);
      // The GEMV kernel row-splits internally and writes y directly;
      // its accumulation is complete here, so the epilogue is one pass
      // over the single output column.
      if (!ep.empty()) ep.apply(y, 0, rows(), 0, 1);
      return;
    }
    run_batched(x, nullptr, y, ep);
  }

  [[nodiscard]] PrepKey do_prep_key() const noexcept override {
    // Tables depend only on x, never on the scale layout, so per-row and
    // grouped plans with equal parameters share artifacts.
    PrepKey key;
    key.kind = "biq-lut";
    key.cols = cols();
    key.batch = batch();
    key.p0 = opt_->mu;
    if (gemv_) {
      // GEMV builds flat tables with the scalar builders — layout equals
      // the interleaved one at a single lane, but the builder code path
      // differs, so the key does too.
      key.p1 = 1;
      key.p2 = opt_->use_dp_builder ? 0u : 1u;
    } else {
      key.p1 = static_cast<std::uint32_t>(tile_plan_.lanes);
      key.p2 = opt_->use_dp_builder ? 2u : 3u;
      key.plane = kernels_;  // interleaved builders are ISA-dispatched
    }
    return key;
  }

  [[nodiscard]] std::size_t do_prep_floats() const noexcept override {
    // Batch tiles of lanes_max columns each store ntables tables of
    // 2^mu * lanes entries; only the last tile can be partial, so the
    // total is exactly tables * entries * batch (batch 1: the flat GEMV
    // LUT, same formula).
    return ntables_ * (std::size_t{1} << opt_->mu) * batch();
  }

  void do_prepare(ConstMatrixView x, float* prep) const override {
    if (gemv_) {
      biqgemv_prepare_packed(x.col(0), cols(), *opt_, prep);
      return;
    }
    run_prepare_kernel(x, prep, ntables_, opt_->mu, opt_->use_dp_builder,
                       tile_plan_, *kernels_, context());
  }

  void do_consume(const float* prep, MatrixView y,
                  const EpilogueOp& ep) const override {
    if (gemv_) {
      biqgemv_consume_packed(*keys_, *alphas_, prep, y.col(0), rows(), cols(),
                             *opt_, context(), *kernels_);
      if (!ep.empty()) ep.apply(y, 0, rows(), 0, 1);
      return;
    }
    run_batched(ConstMatrixView(), prep, y, ep);
  }

  void run_batched(ConstMatrixView x, const float* prep, MatrixView y,
                   const EpilogueOp& ep) const {
    KernelArgs args;
    args.keys = keys_;
    args.alphas = alphas_;
    args.num_groups = num_groups_;
    args.group_size = group_size_;
    args.x = x;
    args.y = y;
    args.m = rows();
    args.n = cols();
    args.b = batch();
    args.ntables = ntables_;
    args.mu = opt_->mu;
    args.use_dp = opt_->use_dp_builder;
    args.plan = tile_plan_;
    args.kernels = kernels_;
    args.ep = &ep;
    args.prep = prep;
    if (opt_->mu > 8) {
      run_kernel<std::uint16_t>(args, context());
    } else {
      run_kernel<std::uint8_t>(args, context());
    }
  }

  const std::vector<KeyMatrix>* keys_;
  const std::vector<std::vector<float>>* alphas_;
  const BiqGemmOptions* opt_;
  const engine::BiqKernels* kernels_;
  std::size_t num_groups_;
  std::size_t group_size_;
  TilePlan tile_plan_;
  std::size_t ntables_;
  bool gemv_;  // batch 1 with per-row scales: the flat-LUT GEMV path
};

}  // namespace

BiqGemm::BiqGemm(std::string_view name, std::size_t rows, std::size_t cols,
                 unsigned bits, std::span<const BinaryMatrix> planes,
                 const std::vector<std::vector<float>>& alphas,
                 std::size_t num_groups, std::size_t group_size,
                 const BiqGemmOptions& opt)
    : name_(name), m_(rows), n_(cols), bits_(bits), num_groups_(num_groups),
      group_size_(group_size), opt_(opt),
      kernels_(&engine::select_kernels(opt.isa)), alphas_(alphas) {
  const std::string who(name_);
  if (bits_ == 0 || planes.size() != bits_) {
    throw std::invalid_argument(who + ": malformed codes (" +
                                std::to_string(planes.size()) +
                                " planes for " + std::to_string(bits_) +
                                " bits)");
  }
  for (const BinaryMatrix& plane : planes) {
    if (plane.rows() != m_ || plane.cols() != n_) {
      throw std::invalid_argument(
          who + ": plane is " + std::to_string(plane.rows()) + "x" +
          std::to_string(plane.cols()) + ", codes are " + std::to_string(m_) +
          "x" + std::to_string(n_));
    }
  }
  if (!alphas_.empty() && alphas_.size() != bits_) {
    throw std::invalid_argument(who + ": " + std::to_string(alphas_.size()) +
                                " alpha vectors for " +
                                std::to_string(bits_) + " planes");
  }
  for (const std::vector<float>& a : alphas_) {
    if (a.size() != m_ * num_groups_) {
      throw std::invalid_argument(
          who + ": alpha vector holds " + std::to_string(a.size()) +
          " floats, expected " + std::to_string(m_ * num_groups_));
    }
  }
  if (opt_.mu == 0 || opt_.mu > kMaxLutUnit) {
    throw std::invalid_argument(who + ": mu must be in [1, 16]");
  }
  if (num_groups_ > 1 && group_size_ % opt_.mu != 0) {
    throw std::invalid_argument(who + ": group_size must be a multiple of mu");
  }
  keys_.reserve(bits_);
  for (const BinaryMatrix& plane : planes) keys_.emplace_back(plane, opt_.mu);
}

BiqGemm::BiqGemm(const BinaryCodes& codes, const BiqGemmOptions& opt)
    : BiqGemm("biqgemm", codes.rows, codes.cols, codes.bits, codes.planes,
              codes.alphas, /*num_groups=*/1, /*group_size=*/codes.cols, opt) {}

BiqGemm::BiqGemm(const GroupedBinaryCodes& codes, const BiqGemmOptions& opt)
    : BiqGemm("biqgemm-grouped", codes.rows, codes.cols, codes.bits,
              codes.planes, codes.alphas, codes.num_groups, codes.group_size,
              opt) {
  if (codes.group_size == 0 ||
      num_groups_ != (n_ + codes.group_size - 1) / codes.group_size) {
    throw std::invalid_argument(
        "biqgemm-grouped: num_groups " + std::to_string(num_groups_) +
        " does not cover " + std::to_string(n_) + " columns in groups of " +
        std::to_string(codes.group_size));
  }
}

BiqGemm::BiqGemm(const BinaryMatrix& plane, const BiqGemmOptions& opt)
    : BiqGemm("biqgemm", plane.rows(), plane.cols(), 1, {&plane, 1}, {},
              /*num_groups=*/1, /*group_size=*/plane.cols(), opt) {}

std::string_view BiqGemm::isa() const noexcept { return kernels_->isa; }

std::size_t BiqGemm::packed_weight_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const KeyMatrix& k : keys_) bytes += k.storage_bytes();
  for (const auto& a : alphas_) bytes += a.size() * sizeof(float);
  return bytes;
}

std::unique_ptr<GemmPlan> BiqGemm::plan(std::size_t batch, ExecContext& ctx,
                                        const Epilogue& epilogue) const {
  const engine::BiqKernels& kernels =
      ctx.isa() == KernelIsa::kAuto ? *kernels_
                                    : engine::select_kernels(ctx.isa());
  return std::make_unique<BiqGemmPlan>(*this, keys_, alphas_, opt_, kernels,
                                       batch, ctx, epilogue);
}

void biqgemm(const BinaryCodes& codes, const Matrix& x, Matrix& y,
             const BiqGemmOptions& opt) {
  BiqGemm(codes, opt).run(x, y);
}

void biqgemm(const BinaryCodes& codes, const Matrix& x, Matrix& y,
             const BiqGemmOptions& opt, ExecContext& ctx) {
  BiqGemm(codes, opt).run(x, y, ctx);
}

void biqgemm_basic(const BinaryCodes& codes, const Matrix& x, Matrix& y,
                   unsigned mu) {
  if (x.rows() != codes.cols || y.rows() != codes.rows ||
      y.cols() != x.cols()) {
    throw std::invalid_argument("biqgemm_basic: shape mismatch");
  }
  const std::size_t m = codes.rows, n = codes.cols, b = x.cols();
  const std::size_t ntables = table_count(n, mu);
  std::vector<KeyMatrix> keys;
  keys.reserve(codes.bits);
  for (unsigned q = 0; q < codes.bits; ++q) keys.emplace_back(codes.planes[q], mu);

  std::vector<float> lut(std::size_t{1} << mu);
  y.set_zero();
  for (std::size_t c = 0; c < b; ++c) {
    const float* xc = x.col(c);
    float* yc = y.col(c);
    for (std::size_t t = 0; t < ntables; ++t) {
      const std::size_t base = t * mu;
      const std::size_t len = std::min<std::size_t>(mu, n - base);
      build_lut_dp(xc + base, len, mu, lut.data());
      for (unsigned q = 0; q < codes.bits; ++q) {
        const std::vector<float>& alpha = codes.alphas[q];
        for (std::size_t i = 0; i < m; ++i) {
          yc[i] += alpha[i] * lut[keys[q].key(i, t)];
        }
      }
    }
  }
}

}  // namespace biq
