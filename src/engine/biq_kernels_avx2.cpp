// AVX2+FMA plane of the compiled kernel hot loops (BiQGEMM
// build/query/GEMV, the blocked dense microkernel, the grouped-LUT
// kernel and the fp32 math plane). This file is
// compiled with -mavx2 -mfma (see CMakeLists.txt) while the rest of the
// library stays on the portable baseline; dispatch only hands out this
// plane when the running CPU reports AVX2, so the binary as a whole
// remains portable.
#if !defined(__AVX2__)
#error "biq_kernels_avx2.cpp must be compiled with -mavx2 (check CMakeLists)"
#endif
#if defined(__AVX512F__)
#error "biq_kernels_avx2.cpp must not be compiled with -mavx512f"
#endif

#define BIQ_KERNELS_NS kern_avx2
#include "engine/biq_kernels_impl.hpp"
#include "engine/blocked_kernels_impl.hpp"
#include "engine/tmac_kernels_impl.hpp"
#include "engine/math_kernels_impl.hpp"

namespace biq::engine::kern_avx2 {

const KernelPlane& plane() noexcept {
  static const KernelPlane p{"avx2", biq_table(), blocked_table(),
                             tmac_table(), math_table()};
  return p;
}

}  // namespace biq::engine::kern_avx2
