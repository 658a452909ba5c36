// Generic source of the blocked dense GEMM microkernel (the
// vendor-library stand-in's hot loop), compiled once per ISA exactly
// like biq_kernels_impl.hpp. Include this AFTER biq_kernels_impl.hpp in
// the same per-ISA TU with the same BIQ_KERNELS_NS: it reuses that TU's
// V8 vector type, so the scalar plane runs portable 8-float loops while
// the AVX2/AVX-512 planes lower the identical code to FMA intrinsics.
// Panel packing stays ISA-independent in gemm_blocked.cpp; only the
// multiply sweep lives here, behind the BlockedKernels function-pointer
// table (engine/dispatch.hpp).

#ifndef BIQ_KERNELS_NS
#error "blocked_kernels_impl.hpp must be included with BIQ_KERNELS_NS defined"
#endif

#include <algorithm>
#include <cstddef>

#include "engine/dispatch.hpp"
#include "matrix/view.hpp"

namespace biq::engine {
namespace BIQ_KERNELS_NS {
namespace {

constexpr std::size_t kColTile = 4;   // NR: batch columns per microkernel
constexpr std::size_t kKBlock = 512;  // KC: k-extent per pass (L1-friendly)

/// 8 rows x (up to 4) columns, over k in [k0, k1), accumulating into Y.
template <std::size_t NR>
void microkernel(const float* panel, const float* const* xcols,
                 float* const* ycols, std::size_t k0, std::size_t k1) {
  V8 acc[NR];
  for (std::size_t c = 0; c < NR; ++c) acc[c] = V8::zero();
  const float* wp = panel + k0 * kBlockedPanelRows;
  for (std::size_t k = k0; k < k1; ++k, wp += kBlockedPanelRows) {
    const V8 wv = V8::load(wp);
    for (std::size_t c = 0; c < NR; ++c) {
      acc[c].fma(wv, V8::set1(xcols[c][k]));
    }
  }
  for (std::size_t c = 0; c < NR; ++c) {
    V8 prev = V8::loadu(ycols[c]);
    (prev + acc[c]).storeu(ycols[c]);
  }
}

/// Same as microkernel but writes only `valid_rows` (< 8) rows.
template <std::size_t NR>
void microkernel_tail(const float* panel, const float* const* xcols,
                      float* const* ycols, std::size_t k0, std::size_t k1,
                      std::size_t valid_rows) {
  V8 acc[NR];
  for (std::size_t c = 0; c < NR; ++c) acc[c] = V8::zero();
  const float* wp = panel + k0 * kBlockedPanelRows;
  for (std::size_t k = k0; k < k1; ++k, wp += kBlockedPanelRows) {
    const V8 wv = V8::load(wp);
    for (std::size_t c = 0; c < NR; ++c) {
      acc[c].fma(wv, V8::set1(xcols[c][k]));
    }
  }
  alignas(32) float lanes[kBlockedPanelRows];
  for (std::size_t c = 0; c < NR; ++c) {
    acc[c].store(lanes);
    for (std::size_t r = 0; r < valid_rows; ++r) ycols[c][r] += lanes[r];
  }
}

void run_panels(const float* packed, std::size_t m, std::size_t n,
                ConstMatrixView x, MatrixView y, std::size_t panel_begin,
                std::size_t panel_end) {
  const std::size_t b = x.cols();
  for (std::size_t p = panel_begin; p < panel_end; ++p) {
    const float* panel = packed + p * kBlockedPanelRows * n;
    const std::size_t row0 = p * kBlockedPanelRows;
    const std::size_t valid = std::min(kBlockedPanelRows, m - row0);

    for (std::size_t k0 = 0; k0 < n; k0 += kKBlock) {
      const std::size_t k1 = std::min(n, k0 + kKBlock);
      std::size_t c = 0;
      for (; c + kColTile <= b; c += kColTile) {
        const float* xcols[kColTile] = {x.col(c), x.col(c + 1), x.col(c + 2),
                                        x.col(c + 3)};
        float* ycols[kColTile] = {y.col(c) + row0, y.col(c + 1) + row0,
                                  y.col(c + 2) + row0, y.col(c + 3) + row0};
        if (valid == kBlockedPanelRows) {
          microkernel<kColTile>(panel, xcols, ycols, k0, k1);
        } else {
          microkernel_tail<kColTile>(panel, xcols, ycols, k0, k1, valid);
        }
      }
      for (; c < b; ++c) {
        const float* xcols[1] = {x.col(c)};
        float* ycols[1] = {y.col(c) + row0};
        if (valid == kBlockedPanelRows) {
          microkernel<1>(panel, xcols, ycols, k0, k1);
        } else {
          microkernel_tail<1>(panel, xcols, ycols, k0, k1, valid);
        }
      }
    }
  }
}

/// This TU's BlockedKernels table, exported through its KernelPlane.
BlockedKernels blocked_table() noexcept {
  BlockedKernels t;
  t.run_panels = &run_panels;
  return t;
}

}  // namespace

}  // namespace BIQ_KERNELS_NS
}  // namespace biq::engine
