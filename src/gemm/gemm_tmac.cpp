#include "gemm/gemm_tmac.hpp"

#include <algorithm>
#include <memory>

#include "engine/partition.hpp"

namespace biq {
namespace {

using engine::kTmacTileRows;

/// Sign-extends the low `storage_bits` of a nibble field.
int decode_code(unsigned v, unsigned storage_bits) noexcept {
  const unsigned half = 1u << (storage_bits - 1);
  return static_cast<int>(v) - (v >= half ? (1 << storage_bits) : 0);
}

/// One column's lookup-accumulate sweep over row tiles [t0, t1):
/// dequantize and the fused epilogue ride each tile's write-back, so
/// each fp32 value is touched exactly once.
void tmac_run_column(const TmacPacked& packed,
                     const engine::TmacKernels& kernels, MatrixView y,
                     std::size_t c, float xs, const std::uint8_t* lut,
                     std::size_t t0, std::size_t t1, const EpilogueOp& ep) {
  const bool fused = !ep.empty();
  float* out = y.col(c);
  const float* sc = packed.scales.data();
  for (std::size_t t = t0; t < t1; ++t) {
    alignas(32) std::int32_t acc[kTmacTileRows];
    engine::TmacTileArgs args;
    args.wtile = packed.tile(t);
    args.lut = lut;
    args.ngroups = packed.ngroups;
    args.acc = acc;
    kernels.accumulate_tile(args);
    const std::size_t i0 = t * kTmacTileRows;
    const std::size_t i1 = std::min(packed.rows, i0 + kTmacTileRows);
    for (std::size_t i = i0; i < i1; ++i) {
      out[i] = sc[i] * xs * static_cast<float>(acc[i - i0]);
    }
    if (fused) ep.apply(y, i0, i1, c, c + 1);
  }
}

}  // namespace

int TmacPacked::code_at(std::size_t row, std::size_t col) const noexcept {
  const std::size_t g = col / codes_per_nibble;
  const std::size_t t = row / kTmacTileRows;
  const std::size_t k = row % kTmacTileRows;
  const std::uint8_t byte = tile(t)[g * 16 + (k % 16)];
  const unsigned nibble = k < 16 ? (byte & 0x0F) : (byte >> 4);
  if (codes_per_nibble == 2) {
    const unsigned sub = static_cast<unsigned>(col % 2);
    return decode_code((nibble >> (2 * sub)) & 0x3, 2);
  }
  return decode_code(nibble, 4);
}

TmacPacked pack_tmac(const LowBitQuantized& q) {
  TmacPacked p;
  p.rows = q.rows;
  p.cols = q.cols;
  p.bits = q.bits;
  p.storage_bits = q.storage_bits;
  p.codes_per_nibble = q.storage_bits == 2 ? 2 : 1;
  p.ngroups = (q.cols + p.codes_per_nibble - 1) / p.codes_per_nibble;
  p.ntiles = (q.rows + kTmacTileRows - 1) / kTmacTileRows;
  p.scales = q.scales;
  p.bytes =
      AlignedBuffer<std::uint8_t>(p.ntiles * p.ngroups * 16, /*zero_fill=*/true);

  // Two's-complement field of one code; rows / cols past the matrix
  // pack as 0 so padded lanes select zero-valued table entries.
  const auto nibble_of = [&](std::size_t row, std::size_t g) -> unsigned {
    if (row >= q.rows) return 0;
    if (p.codes_per_nibble == 2) {
      const std::size_t c0 = 2 * g, c1 = 2 * g + 1;
      const unsigned f0 =
          c0 < q.cols ? (static_cast<unsigned>(q.codes[row * q.cols + c0]) & 0x3)
                      : 0u;
      const unsigned f1 =
          c1 < q.cols ? (static_cast<unsigned>(q.codes[row * q.cols + c1]) & 0x3)
                      : 0u;
      return f0 | (f1 << 2);
    }
    return static_cast<unsigned>(q.codes[row * q.cols + g]) & 0xF;
  };

  for (std::size_t t = 0; t < p.ntiles; ++t) {
    std::uint8_t* dst = p.bytes.data() + t * p.ngroups * 16;
    const std::size_t row0 = t * kTmacTileRows;
    for (std::size_t g = 0; g < p.ngroups; ++g) {
      for (std::size_t k = 0; k < 16; ++k) {
        dst[g * 16 + k] = static_cast<std::uint8_t>(
            nibble_of(row0 + k, g) | (nibble_of(row0 + 16 + k, g) << 4));
      }
    }
  }
  return p;
}

void tmac_build_column_lut(const std::int8_t* xq, std::size_t n,
                           unsigned storage_bits, std::size_t ngroups,
                           std::uint8_t* lut) noexcept {
  if (storage_bits == 2) {
    for (std::size_t g = 0; g < ngroups; ++g) {
      const int a0 = 2 * g < n ? xq[2 * g] : 0;
      const int a1 = 2 * g + 1 < n ? xq[2 * g + 1] : 0;
      std::uint8_t* lo = lut + g * 32;
      std::uint8_t* hi = lo + 16;
      for (unsigned v = 0; v < 16; ++v) {
        const int e = decode_code(v & 0x3, 2) * a0 + decode_code(v >> 2, 2) * a1;
        lo[v] = static_cast<std::uint8_t>(e & 0xFF);
        hi[v] = static_cast<std::uint8_t>((e >> 8) & 0xFF);
      }
    }
    return;
  }
  for (std::size_t g = 0; g < ngroups; ++g) {
    const int a = g < n ? xq[g] : 0;
    std::uint8_t* lo = lut + g * 32;
    std::uint8_t* hi = lo + 16;
    for (unsigned v = 0; v < 16; ++v) {
      const int e = decode_code(v, 4) * a;
      lo[v] = static_cast<std::uint8_t>(e & 0xFF);
      hi[v] = static_cast<std::uint8_t>((e >> 8) & 0xFF);
    }
  }
}

TmacLutGemm::TmacLutGemm(const Matrix& w, unsigned weight_bits)
    : packed_(pack_tmac(quantize_lowbit(w, weight_bits))) {}

Matrix TmacLutGemm::dequantize() const {
  Matrix out(packed_.rows, packed_.cols);
  for (std::size_t i = 0; i < packed_.rows; ++i) {
    for (std::size_t k = 0; k < packed_.cols; ++k) {
      out(i, k) =
          packed_.scales[i] * static_cast<float>(packed_.code_at(i, k));
    }
  }
  return out;
}

namespace {

class TmacPlanImpl final : public GemmPlan {
 public:
  TmacPlanImpl(const TmacLutGemm& engine, std::size_t batch, ExecContext& ctx,
               const Epilogue& epilogue)
      : GemmPlan(engine.name(), engine.rows(), engine.cols(), batch, ctx,
                 epilogue),
        engine_(&engine) {}

 private:
  /// One region over (column, row-tile range) items. Each item quantizes
  /// its column to int8, builds the column's tables in its own arena and
  /// sweeps only its tiles; tiles write disjoint y rows and each (row,
  /// column)'s integer chain is fixed, so any worker count produces
  /// bitwise-identical output.
  void execute(ConstMatrixView x, MatrixView y,
               const EpilogueOp& ep) const override {
    const TmacPacked& packed = engine_->packed();
    const std::size_t n = packed.cols;
    struct Scratch {
      std::int8_t* xq;
      std::uint8_t* lut;
    };
    engine::for_each_cell(
        context(), batch(), packed.ntiles,
        [&](ScratchArena& arena) {
          return Scratch{arena.alloc<std::int8_t>(n),
                         arena.alloc<std::uint8_t>(packed.ngroups * 32)};
        },
        [&](const Scratch& s, std::size_t c, std::size_t t0, std::size_t t1) {
          const float xs = quantize_column_int8(x.col(c), n, s.xq);
          tmac_build_column_lut(s.xq, n, packed.storage_bits, packed.ngroups,
                                s.lut);
          tmac_run_column(packed, plane().tmac, y, c, xs, s.lut, t0, t1, ep);
        });
  }

  const TmacLutGemm* engine_;
};

}  // namespace

std::unique_ptr<GemmPlan> TmacLutGemm::plan(std::size_t batch,
                                            ExecContext& ctx,
                                            const Epilogue& epilogue) const {
  return std::make_unique<TmacPlanImpl>(*this, batch, ctx, epilogue);
}

}  // namespace biq
