#include "core/biqgemm.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/lut_builder.hpp"
#include "engine/dispatch.hpp"
#include "engine/partition.hpp"

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
/// [c0, c0+ncols) into the interleaved layout xt[(g*mu+j)*lanes + lane],
/// zero-padding rows past n (the tail-group guarantee) and lanes past
/// ncols (a narrow batch tile runs at the plane's full width; each lane
/// is independent, so the padding never reaches a real column).
void stage_x_tile(ConstMatrixView x, std::size_t c0, std::size_t ncols,
                  std::size_t lanes, std::size_t t0, std::size_t tcount,
                  unsigned mu, float* xt) {
  const std::size_t n = x.rows();
  for (std::size_t g = 0; g < tcount; ++g) {
    for (unsigned j = 0; j < mu; ++j) {
      const std::size_t row = (t0 + g) * mu + j;
      float* dst = xt + (g * mu + j) * lanes;
      const std::size_t real = row < n ? ncols : 0;
      for (std::size_t lane = 0; lane < real; ++lane) {
        dst[lane] = x(row, c0 + lane);
      }
      std::fill(dst + real, dst + lanes, 0.0f);
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
  std::size_t m, b, ntables;
  unsigned mu;
  bool use_dp;
  TilePlan plan;
  const engine::BiqKernels* kernels;  // the plan's ISA plane
  const EpilogueOp* ep;               // fused output transform (may be empty)
  /// Non-null = prepared-LUT consume: the full LUT artifact, batch tile t
  /// at prep + t * ntables * 2^mu * plan.lanes, table g of a chunk at
  /// chunk_base + g * 2^mu * plan.lanes (the layout build_tile emits).
  /// x is then unused and the stage/build phases are skipped.
  const float* prep = nullptr;
};

/// Builds the tcount tables of one staged chunk at `lanes` columns. At
/// the plane's query width the interleaved builders run; at one lane
/// (batch 1) the interleaved layout is the flat 2^mu table, which the
/// scalar builders fill. xt is zero-padded to mu inputs per table, and
/// a padded zero adds nothing to a +0-seeded sum, so the full-length
/// build equals the ragged-tail one bit for bit.
void build_tile(const engine::BiqKernels& kernels, std::size_t lanes,
                const float* xt, float* lut, std::size_t tcount, unsigned mu,
                bool use_dp) {
  const std::size_t table_stride = (std::size_t{1} << mu) * lanes;
  if (lanes == 1) {
    const auto build = use_dp ? &build_lut_dp : &build_lut_mm;
    for (std::size_t g = 0; g < tcount; ++g) {
      build(xt + g * mu, mu, mu, lut + g * table_stride);
    }
    return;
  }
  const auto build = use_dp ? kernels.build_dp : kernels.build_mm;
  for (std::size_t g = 0; g < tcount; ++g) {
    build(xt + g * mu * lanes, mu, lut + g * table_stride);
  }
}

template <typename KeyT>
const KeyT* key_row(const KeyMatrix& k, std::size_t i) noexcept {
  if constexpr (sizeof(KeyT) == 1) {
    return k.row8(i);
  } else {
    return k.row16(i);
  }
}

/// The one-lane query (batch 1): per row, each plane's sum of flat-table
/// hits from the plane's gemv_row, scaled and added into `total` in
/// plane order, then `ytile[i] += total` once per chunk. It lives in
/// this portable translation unit on purpose: in the vector planes'
/// units (built with -mfma) the compiler may contract `alpha * acc`
/// into an FMA and move the bits.
template <typename KeyT>
void query_one_lane(const engine::BiqKernels& kernels,
                    const engine::QueryTileArgs& a) {
  const auto row_fn = [&kernels] {
    if constexpr (sizeof(KeyT) == 1) {
      return kernels.gemv_row_u8;
    } else {
      return kernels.gemv_row_u16;
    }
  }();
  for (std::size_t i = a.i0; i < a.i1; ++i) {
    float total = 0.0f;
    for (std::size_t q = 0; q < a.num_planes; ++q) {
      const float acc =
          row_fn(key_row<KeyT>(a.keys[q], i) + a.t0, a.tcount, a.mu, a.lut);
      total += a.alphas != nullptr
                   ? a.alphas[q][i * a.alpha_stride + a.alpha_offset] * acc
                   : acc;
    }
    a.ytile[i] += total;
  }
}

/// Runs output rows [i0, i1) of the batch tile of columns [c0, c0+ncols)
/// at the tile width plan.lanes (the plane's query width, or 1 at batch
/// 1; ncols < lanes only for a narrow batch or the last tile): every
/// chunk of the tile's tables is staged and built into this worker's
/// scratch (or read from the prepared artifact), queried for those rows,
/// and the rows are written back.
/// The tables and each row's accumulation order do not depend on the
/// row range, so any split of a tile gives the same bits.
template <typename KeyT>
void run_one_batch_tile(const KernelArgs& a, std::size_t c0, std::size_t ncols,
                        std::size_t i0, std::size_t i1, Scratch& scratch) {
  const std::size_t lanes = a.plan.lanes;
  float* ytile = scratch.ytile;
  std::fill(ytile + i0 * lanes, ytile + i1 * lanes, 0.0f);

  engine::QueryTileArgs q;
  q.keys = a.keys->data();
  q.num_planes = a.keys->size();
  q.alphas = a.alphas->empty() ? nullptr : a.alphas->data();
  q.alpha_stride = a.num_groups;
  q.mu = a.mu;
  q.lut = scratch.lut;
  q.ytile = ytile;
  q.i0 = i0;
  q.i1 = i1;
  const auto query_fn = sizeof(KeyT) == 1 ? a.kernels->query_tile_u8
                                          : a.kernels->query_tile_u16;

  const std::size_t entries = std::size_t{1} << a.mu;
  const float* prep_block =
      a.prep == nullptr
          ? nullptr
          : a.prep + (c0 / lanes) * a.ntables * entries * lanes;

  for (std::size_t t0 = 0; t0 < a.ntables; t0 += a.plan.tables_per_tile) {
    const std::size_t tcount = std::min(a.plan.tables_per_tile, a.ntables - t0);

    if (a.prep == nullptr) {
      stage_x_tile(a.x, c0, ncols, lanes, t0, tcount, a.mu, scratch.xt);
      build_tile(*a.kernels, lanes, scratch.xt, scratch.lut, tcount, a.mu,
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
    if (lanes == 1) {
      query_one_lane<KeyT>(*a.kernels, q);
    } else {
      query_fn(q);
    }
  }

  // Write-back from the interleaved tile into y columns — the moment
  // the rows are complete and still hot. The fused epilogue merges into
  // the de-interleave itself (the bias add — and, for activation-free
  // epilogues, the residual add — ride the copy's store), so fusion
  // costs no extra pass over y; an unfused plan pays those terms as
  // separate re-streaming passes afterwards.
  if (a.ep->empty()) {
    for (std::size_t lane = 0; lane < ncols; ++lane) {
      float* ycol = a.y.col(c0 + lane);
      for (std::size_t i = i0; i < i1; ++i) ycol[i] = ytile[i * lanes + lane];
    }
  } else {
    a.ep->apply_interleaved(a.y, ytile, i0, i1, lanes, c0, c0 + ncols);
  }
}

/// One parallel region over (batch tile, row range) items, tile-major,
/// so a serial context runs whole tiles in order exactly as one worker
/// would. Every item carries its own stage/build scratch (none on the
/// consume path, whose tables arrive prebuilt).
template <typename KeyT>
void run_kernel(const KernelArgs& args, ExecContext& ctx) {
  const std::size_t b = args.b;
  const std::size_t lanes = args.plan.lanes;
  engine::for_each_cell(
      ctx, (b + lanes - 1) / lanes, args.m,
      [&](ScratchArena& arena) {
        return Scratch(arena, args.plan, args.m, args.mu,
                       /*build=*/args.prep == nullptr);
      },
      [&](Scratch& scratch, std::size_t tile, std::size_t i0, std::size_t i1) {
        const std::size_t c0 = tile * lanes;
        run_one_batch_tile<KeyT>(args, c0, std::min(lanes, b - c0), i0, i1,
                                 scratch);
      });
}

/// Builds the full batched LUT artifact (every batch tile's interleaved
/// tables) into `prep`, layout as documented on KernelArgs::prep. Uses
/// the same stage_x_tile/build_tile bodies as the fused path, so table
/// contents are bitwise what execute would stream chunk by chunk. Items
/// are (batch tile, chunk) pairs, tile-major: each writes its own slice
/// of the artifact.
void run_prepare_kernel(ConstMatrixView x, float* prep, std::size_t ntables,
                        unsigned mu, bool use_dp, const TilePlan& plan,
                        const engine::BiqKernels& kernels, ExecContext& ctx) {
  const std::size_t b = x.cols();
  const std::size_t lanes = plan.lanes;
  const std::size_t ntiles = (b + lanes - 1) / lanes;
  const std::size_t nchunks =
      (ntables + plan.tables_per_tile - 1) / plan.tables_per_tile;
  const std::size_t entries = std::size_t{1} << mu;
  engine::for_each_item(
      ctx, ntiles * nchunks,
      [&](ScratchArena& arena) {
        return arena.alloc<float>(plan.tables_per_tile * mu * lanes);
      },
      [&](float* xt, std::size_t item) {
        const std::size_t c0 = item / nchunks * lanes;
        const std::size_t t0 = item % nchunks * plan.tables_per_tile;
        const std::size_t tcount = std::min(plan.tables_per_tile,
                                            ntables - t0);
        stage_x_tile(x, c0, std::min(lanes, b - c0), lanes, t0, tcount, mu,
                     xt);
        build_tile(kernels, lanes, xt,
                   prep + (c0 / lanes * ntables + t0) * entries * lanes,
                   tcount, mu, use_dp);
      });
}

/// The frozen (shape, options, context) recipe behind BiqGemm::plan.
/// Everything derivable before the activations arrive is resolved here,
/// once: the kernel plane (ctx's isa) and the tile geometry. A batch
/// tile is the plane's query width, or one lane at batch 1, where the
/// flat tables need no padded lanes. With more than one scale group, a
/// LUT tile is exactly one group, so each tile's hits share one alpha
/// per (plane, row).
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
        tile_plan_(plan_tiles(opt, batch == 1 ? 1 : kernels.query_lanes)),
        ntables_(table_count(engine.cols(), opt.mu)) {
    if (num_groups_ > 1) tile_plan_.tables_per_tile = group_size_ / opt.mu;
    // A tile taller than the layer is one chunk either way, so the clamp
    // keeps the bits; it bounds the scratch sizes (tables_per_tile * mu *
    // lanes) so a huge user value cannot wrap them.
    tile_plan_.tables_per_tile = std::clamp<std::size_t>(
        tile_plan_.tables_per_tile, 1, std::max<std::size_t>(ntables_, 1));
  }

 private:
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    run_items(x, nullptr, y, ep);
  }

  [[nodiscard]] PrepKey do_prep_key() const noexcept override {
    // Tables depend only on x, never on the scale layout, so per-row and
    // grouped plans with equal parameters share artifacts.
    PrepKey key;
    key.kind = "biq-lut";
    key.cols = cols();
    key.batch = batch();
    key.p0 = opt_->mu;
    key.p1 = static_cast<std::uint32_t>(tile_plan_.lanes);
    key.p2 = opt_->use_dp_builder ? 0u : 1u;
    key.plane = kernels_;
    return key;
  }

  [[nodiscard]] std::size_t do_prep_floats() const noexcept override {
    // Every batch tile stores ntables tables of 2^mu * lanes entries, a
    // narrow or last tile included (its zero-padded lanes are built
    // too); batch 1 is one tile of one lane.
    const std::size_t lanes = tile_plan_.lanes;
    const std::size_t ntiles = (batch() + lanes - 1) / lanes;
    return ntables_ * (std::size_t{1} << opt_->mu) * lanes * ntiles;
  }

  void do_prepare(ConstMatrixView x, float* prep) const override {
    run_prepare_kernel(x, prep, ntables_, opt_->mu, opt_->use_dp_builder,
                       tile_plan_, *kernels_, context());
  }

  void do_consume(const float* prep, MatrixView y,
                  const EpilogueOp& ep) const override {
    run_items(ConstMatrixView(), prep, y, ep);
  }

  void run_items(ConstMatrixView x, const float* prep, MatrixView y,
                 const EpilogueOp& ep) const {
    KernelArgs args;
    args.keys = keys_;
    args.alphas = alphas_;
    args.num_groups = num_groups_;
    args.group_size = group_size_;
    args.x = x;
    args.y = y;
    args.m = rows();
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
};

}  // namespace

BiqGemm::BiqGemm(std::string_view name, std::size_t rows, std::size_t cols,
                 unsigned bits, std::span<const BinaryMatrix> planes,
                 const std::vector<std::vector<float>>& alphas,
                 std::size_t num_groups, std::size_t group_size,
                 const BiqGemmOptions& opt)
    : name_(name), m_(rows), n_(cols), bits_(bits), num_groups_(num_groups),
      group_size_(group_size), opt_(opt), alphas_(alphas) {
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

std::size_t BiqGemm::packed_weight_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const KeyMatrix& k : keys_) bytes += k.storage_bytes();
  for (const auto& a : alphas_) bytes += a.size() * sizeof(float);
  return bytes;
}

std::unique_ptr<GemmPlan> BiqGemm::plan(std::size_t batch, ExecContext& ctx,
                                        const Epilogue& epilogue) const {
  return std::make_unique<BiqGemmPlan>(*this, keys_, alphas_, opt_,
                                       engine::select_plane(ctx.isa()).biq,
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
