#include "core/biqgemm.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/lut_builder.hpp"
#include "core/mu_select.hpp"
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

/// One engine's rows of a plan: its key planes and scales, the rows
/// [row0, row0 + rows) of the plan's y it fills and the epilogue they
/// take. A plain plan has one part; a row stack (plan_stack) has one
/// per engine, all querying the same tables.
struct Part {
  const KeyMatrix* keys;  // planes [0, num_planes)
  std::size_t num_planes;
  const std::vector<float>* alphas;  // nullptr = unit scales
  /// Scale columns per row and inputs per scale column: the chunk whose
  /// first table is t0 reads alphas[q][i * num_groups + t0 * mu /
  /// group_size] (column 0 for per-row scales, where group_size = n).
  std::size_t num_groups, group_size;
  std::size_t row0, rows;
  Epilogue epilogue;  // a stack's own; a plain plan runs the plan's
};

Part part_of(const BiqGemm& e, std::size_t row0, const Epilogue& ep) {
  Part p;
  p.keys = &e.keys(0);
  p.num_planes = e.bits();
  p.alphas = e.alphas().empty() ? nullptr : e.alphas().data();
  p.num_groups = e.num_groups();
  p.group_size = e.group_size();
  p.row0 = row0;
  p.rows = e.rows();
  p.epilogue = ep;
  return p;
}

/// A part bound to one run: its row block of y and its epilogue.
struct PartRun {
  const Part* part = nullptr;
  MatrixView y;
  EpilogueOp ep;
};

struct KernelArgs {
  const PartRun* parts;
  std::size_t nparts;
  ConstMatrixView x;
  std::size_t m, b, ntables;  // m: rows of all parts
  unsigned mu;
  bool use_dp;
  TilePlan plan;
  const engine::BiqKernels* kernels;  // the plan's ISA plane
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

/// The one-lane query (batch 1): per row, each plane's sum of flat-table
/// hits from the plane's gemv_rows, scaled and added into `total` in
/// plane order, then `ytile[i] += total` once per chunk. Rows go in
/// blocks so each gemv_rows call serves many rows. It lives in this
/// portable translation unit on purpose: in the vector planes' units
/// (built with -mfma) the compiler may contract `alpha * acc` into an
/// FMA and move the bits.
void query_one_lane(const engine::BiqKernels& kernels,
                    const engine::QueryTileArgs& a) {
  constexpr std::size_t kBlock = 64;
  float total[kBlock], acc[kBlock];
  for (std::size_t r0 = a.i0; r0 < a.i1; r0 += kBlock) {
    const std::size_t rows = std::min(kBlock, a.i1 - r0);
    std::fill(total, total + rows, 0.0f);
    for (std::size_t q = 0; q < a.num_planes; ++q) {
      kernels.gemv_rows(a.keys[q], r0, r0 + rows, a.t0, a.tcount, a.lut, acc);
      for (std::size_t r = 0; r < rows; ++r) {
        total[r] += a.alphas != nullptr
                        ? a.alphas[q][(r0 + r) * a.alpha_stride +
                                      a.alpha_offset] *
                              acc[r]
                        : acc[r];
      }
    }
    for (std::size_t r = 0; r < rows; ++r) a.ytile[r0 + r] += total[r];
  }
}

/// Rows [lo, hi) of `part` that fall in the item's rows [i0, i1), in the
/// part's own numbering; lo >= hi when none do.
struct PartRows {
  std::size_t lo, hi;
};
PartRows part_rows(const Part& p, std::size_t i0, std::size_t i1) noexcept {
  const std::size_t lo = std::max(i0, p.row0);
  const std::size_t hi = std::min(i1, p.row0 + p.rows);
  return lo < hi ? PartRows{lo - p.row0, hi - p.row0} : PartRows{0, 0};
}

/// Runs output rows [i0, i1) of the batch tile of columns [c0, c0+ncols)
/// at the tile width plan.lanes (the plane's query width, or 1 at batch
/// 1; ncols < lanes only for a narrow batch or the last tile): every
/// chunk of the tile's tables is staged and built once into this
/// worker's scratch (or read from the prepared artifact) and queried by
/// every part's rows in the range, and the rows are written back.
/// The tables and each row's accumulation order depend neither on the
/// row range nor on the other parts, so any split of a tile, and any
/// stack, gives the same bits.
void run_one_batch_tile(const KernelArgs& a, std::size_t c0, std::size_t ncols,
                        std::size_t i0, std::size_t i1, Scratch& scratch) {
  const std::size_t lanes = a.plan.lanes;
  float* ytile = scratch.ytile;
  std::fill(ytile + i0 * lanes, ytile + i1 * lanes, 0.0f);

  engine::QueryTileArgs q;
  q.mu = a.mu;
  q.lut = scratch.lut;

  const std::size_t entries = std::size_t{1} << a.mu;
  const float* prep_block =
      a.prep == nullptr
          ? nullptr
          : a.prep + (c0 / lanes) * a.ntables * entries * lanes;

  for (std::size_t t0 = 0; t0 < a.ntables; t0 += a.plan.tables_per_tile) {
    const std::size_t tcount = std::min(a.plan.tables_per_tile, a.ntables - t0);

    if (a.prep == nullptr) {
      a.kernels->stage_x_tile(a.x, c0, ncols, t0 * a.mu, tcount * a.mu,
                              lanes, scratch.xt);
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
    for (std::size_t p = 0; p < a.nparts; ++p) {
      const Part& part = *a.parts[p].part;
      const PartRows r = part_rows(part, i0, i1);
      if (r.lo >= r.hi) continue;
      q.keys = part.keys;
      q.num_planes = part.num_planes;
      q.alphas = part.alphas;
      q.alpha_stride = part.num_groups;
      q.alpha_offset = t0 * a.mu / part.group_size;
      q.ytile = ytile + part.row0 * lanes;
      q.i0 = r.lo;
      q.i1 = r.hi;
      if (lanes == 1) {
        query_one_lane(*a.kernels, q);
      } else {
        a.kernels->query_tile(q);
      }
    }
  }

  // Write-back from the interleaved tile into y columns — the moment
  // the rows are complete and still hot. The fused epilogue merges into
  // the de-interleave itself (the bias add — and, for activation-free
  // epilogues, the residual add — ride the copy's store), so fusion
  // costs no extra pass over y; an unfused plan pays those terms as
  // separate re-streaming passes afterwards. An empty epilogue is the
  // plain de-interleaving copy.
  for (std::size_t p = 0; p < a.nparts; ++p) {
    const PartRun& run = a.parts[p];
    const PartRows r = part_rows(*run.part, i0, i1);
    if (r.lo >= r.hi) continue;
    run.ep.apply_interleaved(run.y, ytile + run.part->row0 * lanes, r.lo,
                             r.hi, lanes, c0, c0 + ncols);
  }
}

/// One parallel region over (batch tile, row range) items, tile-major,
/// so a serial context runs whole tiles in order exactly as one worker
/// would. Every item carries its own stage/build scratch (none on the
/// consume path, whose tables arrive prebuilt).
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
        run_one_batch_tile(args, c0, std::min(lanes, b - c0), i0, i1, scratch);
      });
}

/// Builds the full batched LUT artifact (every batch tile's interleaved
/// tables) into `prep`, layout as documented on KernelArgs::prep. Uses
/// the same stage/build bodies as the fused path, so table contents are
/// bitwise what execute would stream chunk by chunk. Items are (batch
/// tile, chunk) pairs, tile-major: each writes its own slice of the
/// artifact.
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
        kernels.stage_x_tile(x, c0, std::min(lanes, b - c0), t0 * mu,
                             tcount * mu, lanes, xt);
        build_tile(kernels, lanes, xt,
                   prep + (c0 / lanes * ntables + t0) * entries * lanes,
                   tcount, mu, use_dp);
      });
}

/// Batch-tile width of an engine's plans: the plane's query width, or
/// one lane at batch 1, where the flat tables need no padded lanes.
std::size_t tile_lanes(std::size_t batch, const engine::KernelPlane& plane) {
  return batch == 1 ? 1 : plane.biq.query_lanes;
}

/// Tables per LUT chunk of `e`'s plans at `lanes` lanes. With more than
/// one scale group a chunk is exactly one group, so each chunk's hits
/// share one alpha per (plane, row). A chunk taller than the layer is
/// one chunk either way, so the clamp keeps the bits; it bounds the
/// scratch sizes (tables_per_tile * mu * lanes) so a huge user value
/// cannot wrap them.
std::size_t chunk_tables(const BiqGemm& e, std::size_t lanes) {
  const std::size_t t = e.num_groups() > 1
                            ? e.group_size() / e.mu()
                            : plan_tiles(e.options(), e.mu(), lanes)
                                  .tables_per_tile;
  return std::clamp<std::size_t>(
      t, 1, std::max<std::size_t>(table_count(e.cols(), e.mu()), 1));
}

/// The frozen (shape, options, context) recipe behind BiqGemm::plan and
/// BiQGEMM row stacks. Everything derivable before the activations
/// arrive is resolved here, once: the kernel plane (ctx's isa), the
/// tile geometry and the parts. A plain plan is one part under the
/// plan's own epilogue; a stack's parts share mu, builder and chunk
/// height, so one staged and built chunk serves all of them, and each
/// part runs under its own epilogue.
class BiqGemmPlan final : public GemmPlan {
 public:
  BiqGemmPlan(const BiqGemm& engine, std::size_t batch, ExecContext& ctx,
              const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        mu_(engine.mu()), use_dp_(engine.options().use_dp_builder),
        stacked_(false),
        tile_plan_{tile_lanes(batch, plane()),
                   chunk_tables(engine, tile_lanes(batch, plane()))},
        ntables_(table_count(engine.cols(), engine.mu())),
        parts_{part_of(engine, 0, Epilogue{})}, runs_(1) {}

  /// A row stack of BiqGemm engines (checked compatible by the caller).
  BiqGemmPlan(std::span<const StackPart> parts, std::size_t rows,
              std::size_t batch, ExecContext& ctx)
      : GemmPlan(parts.front().engine->name(), rows,
                 parts.front().engine->cols(), batch, ctx),
        mu_(first(parts).mu()),
        use_dp_(first(parts).options().use_dp_builder), stacked_(true),
        tile_plan_{tile_lanes(batch, plane()),
                   chunk_tables(first(parts), tile_lanes(batch, plane()))},
        ntables_(table_count(cols(), mu_)), runs_(parts.size()) {
    parts_.reserve(parts.size());
    std::size_t row0 = 0;
    for (const StackPart& p : parts) {
      const auto& e = static_cast<const BiqGemm&>(*p.engine);
      parts_.push_back(part_of(e, row0, p.epilogue));
      row0 += e.rows();
    }
  }

 private:
  static const BiqGemm& first(std::span<const StackPart> parts) {
    return static_cast<const BiqGemm&>(*parts.front().engine);
  }

  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    run_items(x, nullptr, y, ep);
  }

  [[nodiscard]] PrepKey do_prep_key() const noexcept override {
    // Tables depend only on x, never on the scale layout or the parts,
    // so per-row, grouped and stacked plans with equal parameters share
    // artifacts.
    PrepKey key;
    key.kind = "biq-lut";
    key.cols = cols();
    key.batch = batch();
    key.p0 = mu_;
    key.p1 = static_cast<std::uint32_t>(tile_plan_.lanes);
    key.p2 = use_dp_ ? 0u : 1u;
    key.plane = &plane().biq;
    return key;
  }

  [[nodiscard]] std::size_t do_prep_floats() const noexcept override {
    // Every batch tile stores ntables tables of 2^mu * lanes entries, a
    // narrow or last tile included (its zero-padded lanes are built
    // too); batch 1 is one tile of one lane.
    const std::size_t lanes = tile_plan_.lanes;
    const std::size_t ntiles = (batch() + lanes - 1) / lanes;
    return ntables_ * (std::size_t{1} << mu_) * lanes * ntiles;
  }

  void do_prepare(ConstMatrixView x, float* prep) const override {
    run_prepare_kernel(x, prep, ntables_, mu_, use_dp_, tile_plan_,
                       plane().biq, context());
  }

  void do_consume(const float* prep, MatrixView y,
                  const EpilogueOp& ep) const override {
    run_items(ConstMatrixView(), prep, y, ep);
  }

  void run_items(ConstMatrixView x, const float* prep, MatrixView y,
                 const EpilogueOp& ep) const {
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      const Part& part = parts_[p];
      runs_[p].part = &part;
      runs_[p].y = y.block(part.row0, part.rows, 0, batch());
      runs_[p].ep = stacked_
                        ? EpilogueOp(part.epilogue, ConstMatrixView(),
                                     plane().math)
                        : ep;
    }
    KernelArgs args;
    args.parts = runs_.data();
    args.nparts = runs_.size();
    args.x = x;
    args.m = rows();
    args.b = batch();
    args.ntables = ntables_;
    args.mu = mu_;
    args.use_dp = use_dp_;
    args.plan = tile_plan_;
    args.kernels = &plane().biq;
    args.prep = prep;
    run_kernel(args, context());
  }

  unsigned mu_;
  bool use_dp_;
  bool stacked_;  // parts carry their own epilogues
  TilePlan tile_plan_;
  std::size_t ntables_;
  std::vector<Part> parts_;
  /// Per-run bindings of the parts, rewritten by each run (a plan is run
  /// by one caller at a time); sized here so runs never allocate.
  mutable std::vector<PartRun> runs_;
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
  if (!opt_.mu) {
    opt_.mu = select_lut_unit(m_, bits_, num_groups_ > 1 ? group_size_ : 0);
  }
  const unsigned mu = *opt_.mu;
  if (mu == 0 || mu > kMaxLutUnit) {
    throw std::invalid_argument(who + ": mu must be in [1, 16]");
  }
  if (num_groups_ > 1 && group_size_ % mu != 0) {
    throw std::invalid_argument(who + ": group_size must be a multiple of mu");
  }
  keys_.reserve(bits_);
  for (const BinaryMatrix& plane : planes) keys_.emplace_back(plane, mu);
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
  return std::make_unique<BiqGemmPlan>(*this, batch, ctx, epilogue);
}

std::unique_ptr<GemmPlan> BiqGemm::plan_shared_stack(
    std::span<const StackPart> parts, std::size_t batch,
    ExecContext& ctx) const {
  const std::size_t lanes = tile_lanes(batch, engine::select_plane(ctx.isa()));
  const std::size_t chunk = chunk_tables(*this, lanes);
  std::size_t rows = 0;
  for (const StackPart& p : parts) {
    const auto* e = dynamic_cast<const BiqGemm*>(p.engine);
    if (e == nullptr || e->mu() != mu() ||
        e->options().use_dp_builder != opt_.use_dp_builder ||
        chunk_tables(*e, lanes) != chunk) {
      return nullptr;
    }
    rows += e->rows();
  }
  return std::make_unique<BiqGemmPlan>(parts, rows, batch, ctx);
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
