// Grouped-LUT GEMM over multi-bit weights and int8 activations — the
// T-MAC / DeepGEMM generalization of the paper's LUT trick. BiQGEMM
// builds its tables from binary (+1/-1) weight PLANES; here the weights
// themselves are 1-4-bit signed integer codes (quant/lowbit.hpp) packed
// G codes per byte, and the table is built over ACTIVATION groups: for
// every batch column and every group of activations, precompute all
// partial sums a nibble of weight codes can select, then replace every
// multiply-accumulate in the m x n sweep by one table hit per nibble.
//
// Packed layout (frozen at construction, see pack_tmac): codes of
// width <= 2 bits pair up inside a nibble (2 codes/nibble, 4 codes per
// byte), 3-4-bit codes take a whole nibble (2 codes per byte). Rows
// are tiled kTmacTileRows = 32 at a time; within a tile, group g owns
// 16 consecutive bytes whose byte k carries row k (low nibble) and row
// k + 16 (high nibble) — exactly the shape one _mm256_shuffle_epi8
// consumes, so the inner loop looks 32 rows up per instruction.
//
// Table entry-count math: a nibble indexes 16 entries either way —
// 2-bit codes: 16 = 4 x 4 joint values of a 2-activation group;
// 4-bit codes: 16 = the code alphabet over a single activation. A
// packed BYTE therefore selects from 256 = 16 x 16 combinations
// (4 x 2-bit or 2 x 4-bit codes), factored into two 16-entry lookups
// so the table stays in one register pair instead of 256 entries.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "engine/dispatch.hpp"
#include "engine/gemm_engine.hpp"
#include "matrix/matrix.hpp"
#include "quant/lowbit.hpp"
#include "util/aligned_buffer.hpp"

namespace biq {

/// Tile-major packed weight codes + per-row scales (immutable after
/// pack_tmac). `bytes` holds ntiles tiles of ngroups * 16 bytes each.
struct TmacPacked {
  std::size_t rows = 0;
  std::size_t cols = 0;
  unsigned bits = 4;          // quantization depth (1..4)
  unsigned storage_bits = 4;  // nibble width codes are stored at: 2 or 4
  std::size_t codes_per_nibble = 1;  // 2 at storage 2, 1 at storage 4
  std::size_t ngroups = 0;    // ceil(cols / codes_per_nibble)
  std::size_t ntiles = 0;     // ceil(rows / kTmacTileRows)
  std::vector<float> scales;  // per-row
  AlignedBuffer<std::uint8_t> bytes;  // ntiles * ngroups * 16

  [[nodiscard]] const std::uint8_t* tile(std::size_t t) const noexcept {
    return bytes.data() + t * ngroups * 16;
  }
  /// Decodes one weight code back out of the packed nibbles (the
  /// round-trip accessor the packer tests pin the layout with).
  [[nodiscard]] int code_at(std::size_t row, std::size_t col) const noexcept;
};

/// Packs quantized codes into the tile-major nibble layout above.
/// Rows past `rows` inside the last tile and the ragged tail of a
/// 2-codes-per-nibble group (odd cols) pack as code 0, which indexes
/// table entries that contribute exactly zero.
[[nodiscard]] TmacPacked pack_tmac(const LowBitQuantized& q);

/// Builds one batch column's tables from its int8 activations: ngroups
/// tables of 16 int16 entries in split byte planes (16 low bytes then
/// 16 high bytes per group — the TmacTileArgs::lut layout). Entry v of
/// group g is the partial sum the nibble value v selects:
///   storage 4: decode4(v) * xq[g]
///   storage 2: decode2(v & 3) * xq[2g] + decode2(v >> 2) * xq[2g + 1]
/// with activations past n treated as zero. Exposed for the LUT-build
/// ablation bench and the kernel tests.
void tmac_build_column_lut(const std::int8_t* xq, std::size_t n,
                           unsigned storage_bits, std::size_t ngroups,
                           std::uint8_t* lut) noexcept;

/// The "tmac-lut" engine. Weights quantize once at construction
/// (symmetric per-row, quantize_lowbit) and freeze into the packed
/// tile layout; every run quantizes activations per column to int8,
/// builds the column's tables into arena scratch, and sweeps the
/// packed tiles with the per-ISA lookup-accumulate kernel. All
/// arithmetic up to the final dequantize is integer and identically
/// ordered on every plane and worker count, so outputs are bitwise
/// reproducible scalar-vs-AVX2-vs-AVX-512 and 1-vs-N threads.
class TmacLutGemm final : public GemmEngine {
 public:
  /// Throws std::invalid_argument for weight_bits outside [1, 4].
  explicit TmacLutGemm(const Matrix& w, unsigned weight_bits = 4);

  [[nodiscard]] std::unique_ptr<GemmPlan> plan(
      std::size_t batch, ExecContext& ctx,
      const Epilogue& epilogue) const override;
  using GemmEngine::plan;

  [[nodiscard]] std::size_t rows() const noexcept override {
    return packed_.rows;
  }
  [[nodiscard]] std::size_t cols() const noexcept override {
    return packed_.cols;
  }
  [[nodiscard]] std::size_t weight_bytes() const noexcept override {
    return packed_.bytes.size_bytes() + packed_.scales.size() * sizeof(float);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "tmac-lut";
  }

  [[nodiscard]] unsigned weight_bits() const noexcept { return packed_.bits; }
  [[nodiscard]] const TmacPacked& packed() const noexcept { return packed_; }
  /// W as the engine actually computes with it (scales * codes), for
  /// reference comparisons in tests.
  [[nodiscard]] Matrix dequantize() const;

 private:
  TmacPacked packed_;
};

}  // namespace biq
