// Runtime ISA dispatch for the library's compiled kernel planes.
//
// The hot loops are compiled once per ISA, in per-ISA translation units:
//   biq_kernels_scalar.cpp — portable baseline, always present
//   biq_kernels_avx2.cpp   — same source, compiled with -mavx2 -mfma
//                            (when CMake's BIQ_ENABLE_AVX2 is ON and the
//                            toolchain supports the flag)
//   biq_kernels_avx512.cpp — same source again with -mavx512f, widening
//                            the batched query to 16 lanes
// Every TU includes the same impl headers, one per kernel family below:
//   biq_kernels_impl.hpp     — BiqKernels: BiQGEMM build/query/GEMV loops
//   blocked_kernels_impl.hpp — BlockedKernels: dense packed-panel
//                              microkernel
//   tmac_kernels_impl.hpp    — TmacKernels: grouped-LUT lookup-accumulate
//   math_kernels_impl.hpp    — MathKernels: fp32 exp, GELU / sigmoid /
//                              tanh sweeps, column softmax and the
//                              attention-head kernel
// and exports them together as one KernelPlane, so all planes execute
// the *same* arithmetic in the same order — LUT keys and table layouts
// are bitwise identical across planes, and outputs agree to rounding
// (FMA contraction differs).
//
// Selection happens by probing cpu_features() — never with preprocessor
// guards — so one binary serves scalar CI runners, AVX2 hosts and
// AVX-512 hosts. Each GEMM plan resolves select_plane(ctx.isa()) once,
// when it is compiled, so the ExecContext it is planned on picks its
// plane; the math plane is resolved once per process (math_plane()).
// The BIQ_ISA environment variable ("scalar" / "avx2" / "avx512") sets
// what kAuto resolves to for all of them, which is how CI exercises
// fallback planes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/context.hpp"
#include "matrix/view.hpp"

namespace biq {
class KeyMatrix;
}

namespace biq::engine {

/// One batched query-tile invocation (Algorithm 2 over a LUT tile).
struct QueryTileArgs {
  const KeyMatrix* keys = nullptr;  // planes[0 .. num_planes)
  std::size_t num_planes = 0;
  /// Per-plane scale vectors; nullptr = unit scales. Scale of plane q at
  /// output row i is alphas[q][i * alpha_stride + alpha_offset] — the
  /// stride/offset generalization serves the group-wise kernel, which
  /// stores one scale per (row, group).
  const std::vector<float>* alphas = nullptr;
  std::size_t alpha_stride = 1;
  std::size_t alpha_offset = 0;
  std::size_t t0 = 0;      // first table of the tile (key-column offset)
  std::size_t tcount = 0;  // tables in the tile
  unsigned mu = 0;
  /// Tile base; entry k of table g at lut[((g << mu) + k) * query_lanes].
  const float* lut = nullptr;
  float* ytile = nullptr;  // rows x query_lanes accumulator, row-major
  std::size_t i0 = 0, i1 = 0;  // output-row range [i0, i1)
};

/// BiQGEMM's function-pointer table for one compiled ISA. A BiqGemm plan
/// holds its plane's table and calls through it — no #if in the hot path.
struct BiqKernels {
  /// Batch-tile width the builders and the query vectorize over (8 on
  /// the scalar and AVX2 planes, 16 on AVX-512). Every batch tile has
  /// this width; narrower batches are zero-padded to it.
  std::size_t query_lanes = 8;
  /// Interleaved LUT builders (contract of core/lut_builder.hpp): xt is
  /// [mu x query_lanes] row-major, lut receives 2^mu * query_lanes floats.
  void (*build_dp)(const float* xt, unsigned mu, float* lut) = nullptr;
  void (*build_mm)(const float* xt, unsigned mu, float* lut) = nullptr;
  /// Batched query over one LUT tile, 8-bit / 16-bit key storage.
  void (*query_tile_u8)(const QueryTileArgs&) = nullptr;
  void (*query_tile_u16)(const QueryTileArgs&) = nullptr;
  /// One-lane (batch-1) query body: sum of LUT hits of one key row over
  /// tables [0, tcount), lut holding tcount stacked flat tables of 2^mu
  /// entries (the interleaved layout at one lane). BiqGemm's row loop
  /// around it scales and accumulates each row.
  float (*gemv_row_u8)(const std::uint8_t* krow, std::size_t tcount,
                       unsigned mu, const float* lut) = nullptr;
  float (*gemv_row_u16)(const std::uint16_t* krow, std::size_t tcount,
                        unsigned mu, const float* lut) = nullptr;
};

/// Rows per packed panel of the blocked dense kernel (MR). Shared
/// between the packing code in gemm_blocked.cpp and the per-ISA
/// microkernel TUs — the panel layout is ISA-independent.
inline constexpr std::size_t kBlockedPanelRows = 8;

/// Per-ISA table of the blocked dense GEMM microkernel (the
/// vendor-library stand-in), dispatched exactly like BiqKernels.
struct BlockedKernels {
  /// Y += packed panels [panel_begin, panel_end) times X. `packed` is
  /// panel-major (kBlockedPanelRows rows per panel, zero-padded past m);
  /// panels write disjoint Y rows, so ranges parallelize freely. X and Y
  /// are strided views — slices of larger buffers run without staging.
  void (*run_panels)(const float* packed, std::size_t m, std::size_t n,
                     ConstMatrixView x, MatrixView y, std::size_t panel_begin,
                     std::size_t panel_end) = nullptr;
};

/// Output rows per packed weight tile of the grouped-LUT (tmac-lut)
/// engine. Shared between the packer in gemm_tmac.cpp and the per-ISA
/// lookup-accumulate kernels — the tile layout is ISA-independent: for
/// each activation group g the tile stores 16 bytes, byte k holding row
/// k's nibble code in the low half and row k+16's in the high half.
inline constexpr std::size_t kTmacTileRows = 32;

/// One lookup-accumulate pass of the grouped-LUT engine: one weight
/// tile (kTmacTileRows output rows) against one batch column's tables.
struct TmacTileArgs {
  /// ngroups * 16 bytes of packed nibble codes for this row tile.
  const std::uint8_t* wtile = nullptr;
  /// ngroups * 32 bytes of per-group tables in split byte planes:
  /// entry v of group g is the int16 whose low byte is lut[g*32 + v]
  /// and high byte lut[g*32 + 16 + v] — the layout _mm256_shuffle_epi8
  /// consumes directly (two 16-byte in-register tables per group).
  const std::uint8_t* lut = nullptr;
  std::size_t ngroups = 0;
  /// kTmacTileRows int32 row sums, written (not accumulated) by the
  /// kernel.
  std::int32_t* acc = nullptr;
};

/// Per-ISA table of the grouped-LUT lookup-accumulate kernel,
/// dispatched exactly like BiqKernels. The AVX-512 TU reuses the
/// 256-bit AVX2 body under EVEX encoding (in-register 16-entry table
/// lookup is a VPSHUFB shape; widening it needs AVX-512BW, which the
/// library's -mavx512f plane does not assume).
struct TmacKernels {
  void (*accumulate_tile)(const TmacTileArgs&) = nullptr;
};

/// Per-ISA table of the fp32 math outside the GEMMs. Every sweep maps
/// dst[i] = f(src[i]) over [0, n) (src == dst allowed) and gives each
/// element the same bits wherever it falls in the sweep: tails run the
/// vector body masked, never a separate scalar formula.
struct MathKernels {
  /// e^x: within 2 ulp of std::exp on normal results; +Inf past ~88.72,
  /// +0 below -104, NaN in gives NaN out (so do the sweeps below).
  void (*exp)(const float* src, float* dst, std::size_t n) = nullptr;
  /// tanh-approximation GELU (BERT-family), evaluated as
  /// x / (1 + e^(-2u)), u = sqrt(2/pi) (x + 0.044715 x^3).
  void (*gelu)(const float* src, float* dst, std::size_t n) = nullptr;
  void (*sigmoid)(const float* src, float* dst, std::size_t n) = nullptr;
  void (*tanh)(const float* src, float* dst, std::size_t n) = nullptr;
  /// Numerically-stable softmax of one contiguous column of n values,
  /// in place.
  void (*softmax)(float* col, std::size_t n) = nullptr;
  /// One attention head over head_dim x t strided views:
  /// scores(:, j) = softmax(scale * K^T q_j) for every query column j,
  /// then context(:, j) = V . scores(:, j). scores (t x t) and context
  /// are overwritten; q, k and v are read in place.
  void (*attend_head)(ConstMatrixView q, ConstMatrixView k,
                      ConstMatrixView v, float scale, MatrixView scores,
                      MatrixView context) = nullptr;
};

/// Every kernel family compiled for one ISA: what one per-ISA TU exports.
struct KernelPlane {
  const char* isa = "";  // "scalar" / "avx2" / "avx512"
  BiqKernels biq;
  BlockedKernels blocked;
  TmacKernels tmac;
  MathKernels math;
};

/// True when the plane is linked into this binary.
[[nodiscard]] bool isa_compiled(KernelIsa isa) noexcept;

/// True when the plane is compiled AND the host CPU can execute it.
[[nodiscard]] bool isa_available(KernelIsa isa) noexcept;

/// Resolves a plane. kAuto returns the fastest available plane for this
/// host (honouring BIQ_ISA); explicit requests throw std::runtime_error
/// when isa_available() is false.
[[nodiscard]] const KernelPlane& select_plane(KernelIsa isa);

/// The math plane every caller outside the GEMM engines uses: resolved
/// once per process by select_plane(KernelIsa::kAuto), so it honours
/// BIQ_ISA but not an ExecContext's isa.
[[nodiscard]] const MathKernels& math_plane();

// Per-TU entry points, used by dispatch.cpp.
namespace kern_scalar {
[[nodiscard]] const KernelPlane& plane() noexcept;
}
#if BIQ_HAVE_AVX2_TU
namespace kern_avx2 {
[[nodiscard]] const KernelPlane& plane() noexcept;
}
#endif
#if BIQ_HAVE_AVX512_TU
namespace kern_avx512 {
[[nodiscard]] const KernelPlane& plane() noexcept;
}
#endif

}  // namespace biq::engine
