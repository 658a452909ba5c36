// BiQGEMM — the paper's contribution. Computes
//     Y = sum_q alpha_q o (B_q . X)          (Eq. 2)
// from mu-bit-packed keys and on-the-fly lookup tables instead of
// arithmetic on unpacked weights:
//   per batch tile (the kernel plane's query width: 8 columns, 16 on
//   AVX-512; a narrower batch is zero-padded to it; batch 1 is one
//   one-lane tile of flat tables) and LUT tile (G tables):
//     replace: stage the x sub-vectors into an interleaved tile
//     build:   Algorithm-1 DP tables, entries interleaved by batch lane
//              (Fig. 6) so queries are full vector loads
//     query:   per output row, per plane: acc += LUT_g[key[i][g]] over
//              the tile's tables; y_i += alpha_q[i] * acc (Algorithm 2)
// Group-wise scales (quant/grouped.hpp) change only which alpha a tile
// reads: with more than one scale group, one LUT tile is one group and
// its hits are scaled by alpha_q[i][group].
// Work: O(2^mu * n/mu * b) build + O(m * n/mu * b * bits) query — the
// mu-fold reduction of Eq. 10 when 2^mu << m.
// The LUT unit mu is fixed per engine at set-up: BiqGemmOptions::mu when
// set, else select_lut_unit(rows, bits) (core/mu_select.hpp), which
// weighs the build against the m * bits lookups it serves: mu 6 for
// 512-row layers, 7-8 for the paper's 1K-4K rows. Whatever mu is, each
// plane's keys are one dense bitstream of m*n bits (core/key_matrix.hpp).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "core/key_matrix.hpp"
#include "engine/gemm_engine.hpp"
#include "matrix/matrix.hpp"
#include "quant/binary_codes.hpp"
#include "quant/grouped.hpp"

namespace biq {

class BiqGemm final : public GemmEngine {
 public:
  /// Packs all planes of a quantized weight matrix. The BinaryCodes can
  /// be discarded afterwards; inference needs only this object. Throws
  /// std::invalid_argument unless every plane is rows x cols and alphas
  /// is empty (unit scales) or holds `bits` vectors of `rows` floats.
  explicit BiqGemm(const BinaryCodes& codes, const BiqGemmOptions& opt = {});

  /// Group-wise scales, registered as "biqgemm-grouped". Same checks,
  /// with rows * num_groups floats per alpha vector; with more than one
  /// group, mu must divide group_size so no table straddles a group (an
  /// unset mu is picked among the divisors in [4, 8]; it throws when
  /// there is none).
  /// One group is exactly the per-row case above.
  explicit BiqGemm(const GroupedBinaryCodes& codes,
                   const BiqGemmOptions& opt = {});

  /// Single unscaled plane (pure {-1,+1} weights, alpha == 1): the form
  /// used by the kernel-comparison benches.
  explicit BiqGemm(const BinaryMatrix& plane, const BiqGemmOptions& opt = {});

  /// Freezes kernel plane (ctx's isa; throws std::runtime_error when
  /// it is unavailable), tile geometry and scratch layout for `batch`
  /// columns. plan->run: (batch tile, row range) items — whole tiles
  /// once there are as many tiles as workers — run in one parallel
  /// region over ctx's pool, each building its tile's tables in its own
  /// worker's arena. Batch 1, per-row or grouped scales alike, is one
  /// tile of one lane whose rows split across the workers. All scratch
  /// is served from those per-worker arenas, so repeated runs on a warm
  /// context never touch the heap. The epilogue is applied on the tile
  /// write-back from ytile scratch into y.
  [[nodiscard]] std::unique_ptr<GemmPlan> plan(
      std::size_t batch, ExecContext& ctx,
      const Epilogue& epilogue) const override;
  using GemmEngine::plan;

  /// A stack of BiqGemm parts with this engine's mu, builder and LUT
  /// chunk height (per-row and grouped parts may mix when their chunks
  /// agree) is one plan: one parallel region over (batch tile, row
  /// range) items of the stacked rows, each chunk of x staged and built
  /// once per item and queried by every part's rows in its range, each
  /// row's arithmetic that of its own engine's plan. Any other stack
  /// gets nullptr (its parts run one after another).
  [[nodiscard]] std::unique_ptr<GemmPlan> plan_shared_stack(
      std::span<const StackPart> parts, std::size_t batch,
      ExecContext& ctx) const override;

  [[nodiscard]] std::size_t rows() const noexcept override { return m_; }
  [[nodiscard]] std::size_t cols() const noexcept override { return n_; }
  [[nodiscard]] std::size_t weight_bytes() const noexcept override {
    return packed_weight_bytes();
  }
  /// "biqgemm", or "biqgemm-grouped" when built from grouped codes.
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] unsigned bits() const noexcept { return bits_; }
  /// The LUT unit: options().mu when it was set, else the one
  /// select_lut_unit picked from rows() and bits() at set-up.
  [[nodiscard]] unsigned mu() const noexcept { return *opt_.mu; }
  /// Inputs per scale group (cols() for per-row scales).
  [[nodiscard]] std::size_t group_size() const noexcept { return group_size_; }
  [[nodiscard]] std::size_t num_groups() const noexcept { return num_groups_; }
  /// The options the engine was built with, mu resolved.
  [[nodiscard]] const BiqGemmOptions& options() const noexcept { return opt_; }
  [[nodiscard]] const KeyMatrix& keys(unsigned plane) const {
    return keys_.at(plane);
  }
  /// Per-plane scales, alphas()[q][row * num_groups() + group]; empty =
  /// unit scales.
  [[nodiscard]] const std::vector<std::vector<float>>& alphas() const noexcept {
    return alphas_;
  }

  /// Bytes inference actually loads for weights: packed keys + scales.
  [[nodiscard]] std::size_t packed_weight_bytes() const noexcept;

 private:
  /// The constructor the public ones delegate to: validates and packs.
  BiqGemm(std::string_view name, std::size_t rows, std::size_t cols,
          unsigned bits, std::span<const BinaryMatrix> planes,
          const std::vector<std::vector<float>>& alphas,
          std::size_t num_groups, std::size_t group_size,
          const BiqGemmOptions& opt);

  std::string_view name_;
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  unsigned bits_ = 0;
  std::size_t num_groups_ = 1;
  std::size_t group_size_ = 0;
  BiqGemmOptions opt_;
  std::vector<KeyMatrix> keys_;
  /// alphas_[q][row * num_groups_ + group]; empty => unit scales.
  std::vector<std::vector<float>> alphas_;
};

/// Untiled, unvectorized two-phase reference implementation of the same
/// algorithm — the clarity oracle the optimized kernel is tested against
/// (in addition to gemm_codes_ref).
void biqgemm_basic(const BinaryCodes& codes, const Matrix& x, Matrix& y,
                   unsigned mu = 8);

}  // namespace biq
