// AVX-512 plane of the compiled kernel hot loops: the batched BiQGEMM
// query/build widen to 16 lanes (VBatch = V16, query_lanes = 16 — the
// 16-lane batch tiles the compile-time path used to provide) and so does
// the fp32 math plane, while the GEMV gathers and the blocked dense microkernel reuse the 8-wide AVX2
// code under EVEX encoding. Compiled with -mavx512f -mavx2 -mfma (see
// CMakeLists.txt); dispatch hands this plane out only when the running
// CPU reports AVX-512F, so the binary stays portable.
#if !defined(__AVX512F__)
#error "biq_kernels_avx512.cpp must be compiled with -mavx512f (check CMakeLists)"
#endif

#define BIQ_KERNELS_NS kern_avx512
#include "engine/biq_kernels_impl.hpp"
#include "engine/blocked_kernels_impl.hpp"
#include "engine/tmac_kernels_impl.hpp"
#include "engine/math_kernels_impl.hpp"

namespace biq::engine::kern_avx512 {

const KernelPlane& plane() noexcept {
  static const KernelPlane p{"avx512", biq_table(), blocked_table(),
                             tmac_table(), math_table()};
  return p;
}

}  // namespace biq::engine::kern_avx512
