// Portable-baseline plane of the compiled kernel hot loops (BiQGEMM
// build/query/GEMV, the blocked dense microkernel, the grouped-LUT
// kernel and the fp32 math plane). Compiled WITHOUT
// vector flags (whatever the toolchain's baseline is), so this plane
// runs on every host the library builds for; dispatch falls back to it
// when cpu_features() reports no AVX2/AVX-512 or when BIQ_ISA=scalar.
#if defined(__AVX2__)
#error "biq_kernels_scalar.cpp must be compiled without -mavx2 (check CMakeLists)"
#endif

#define BIQ_KERNELS_NS kern_scalar
#include "engine/biq_kernels_impl.hpp"
#include "engine/blocked_kernels_impl.hpp"
#include "engine/tmac_kernels_impl.hpp"
#include "engine/math_kernels_impl.hpp"

namespace biq::engine::kern_scalar {

const KernelPlane& plane() noexcept {
  static const KernelPlane p{"scalar", biq_table(), blocked_table(),
                             tmac_table(), math_table()};
  return p;
}

}  // namespace biq::engine::kern_scalar
