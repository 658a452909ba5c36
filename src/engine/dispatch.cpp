#include "engine/dispatch.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/cpu_features.hpp"

namespace biq::engine {
namespace {

const BiqKernels* avx2_plane() noexcept {
#if BIQ_HAVE_AVX2_TU
  return &kern_avx2::kernels();
#else
  return nullptr;
#endif
}

const BiqKernels* avx512_plane() noexcept {
#if BIQ_HAVE_AVX512_TU
  return &kern_avx512::kernels();
#else
  return nullptr;
#endif
}

const BlockedKernels* avx2_blocked_plane() noexcept {
#if BIQ_HAVE_AVX2_TU
  return &kern_avx2::blocked_kernels();
#else
  return nullptr;
#endif
}

const BlockedKernels* avx512_blocked_plane() noexcept {
#if BIQ_HAVE_AVX512_TU
  return &kern_avx512::blocked_kernels();
#else
  return nullptr;
#endif
}

const TmacKernels* avx2_tmac_plane() noexcept {
#if BIQ_HAVE_AVX2_TU
  return &kern_avx2::tmac_kernels();
#else
  return nullptr;
#endif
}

const TmacKernels* avx512_tmac_plane() noexcept {
#if BIQ_HAVE_AVX512_TU
  return &kern_avx512::tmac_kernels();
#else
  return nullptr;
#endif
}

const MathKernels* avx2_math_plane() noexcept {
#if BIQ_HAVE_AVX2_TU
  return &kern_avx2::math_kernels();
#else
  return nullptr;
#endif
}

const MathKernels* avx512_math_plane() noexcept {
#if BIQ_HAVE_AVX512_TU
  return &kern_avx512::math_kernels();
#else
  return nullptr;
#endif
}

/// BIQ_ISA override, parsed once (empty = no override).
KernelIsa env_override() {
  static const KernelIsa cached = [] {
    const char* v = std::getenv("BIQ_ISA");
    if (v == nullptr || *v == '\0') return KernelIsa::kAuto;
    if (std::strcmp(v, "scalar") == 0) return KernelIsa::kScalar;
    if (std::strcmp(v, "avx2") == 0) return KernelIsa::kAvx2;
    if (std::strcmp(v, "avx512") == 0) return KernelIsa::kAvx512;
    throw std::runtime_error(std::string("BIQ_ISA: unknown plane '") + v +
                             "' (expected 'scalar', 'avx2' or 'avx512')");
  }();
  return cached;
}

const char* isa_name(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kAuto: return "auto";
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "?";
}

[[noreturn]] void throw_unavailable(KernelIsa isa) {
  throw std::runtime_error(
      std::string("select_kernels: ISA plane '") + isa_name(isa) +
      (isa_compiled(isa) ? "' not supported by this CPU"
                         : "' not compiled into this binary"));
}

/// Auto order: widest available plane first.
KernelIsa resolve_auto() {
  const KernelIsa forced = env_override();
  if (forced != KernelIsa::kAuto) return forced;
  if (isa_available(KernelIsa::kAvx512)) return KernelIsa::kAvx512;
  if (isa_available(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

}  // namespace

bool isa_compiled(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kAuto:
    case KernelIsa::kScalar: return true;
    case KernelIsa::kAvx2: return avx2_plane() != nullptr;
    case KernelIsa::kAvx512: return avx512_plane() != nullptr;
  }
  return false;
}

bool isa_available(KernelIsa isa) noexcept {
  if (!isa_compiled(isa)) return false;
  if (isa == KernelIsa::kAvx2) return cpu_features().avx2;
  if (isa == KernelIsa::kAvx512) return cpu_features().avx512f;
  return true;
}

const BiqKernels& select_kernels(KernelIsa isa) {
  if (isa == KernelIsa::kAuto) return select_kernels(resolve_auto());
  if (!isa_available(isa)) throw_unavailable(isa);
  switch (isa) {
    case KernelIsa::kAvx512: return *avx512_plane();
    case KernelIsa::kAvx2: return *avx2_plane();
    default: return kern_scalar::kernels();
  }
}

const BlockedKernels& select_blocked_kernels(KernelIsa isa) {
  if (isa == KernelIsa::kAuto) return select_blocked_kernels(resolve_auto());
  if (!isa_available(isa)) throw_unavailable(isa);
  switch (isa) {
    case KernelIsa::kAvx512: return *avx512_blocked_plane();
    case KernelIsa::kAvx2: return *avx2_blocked_plane();
    default: return kern_scalar::blocked_kernels();
  }
}

const TmacKernels& select_tmac_kernels(KernelIsa isa) {
  if (isa == KernelIsa::kAuto) return select_tmac_kernels(resolve_auto());
  if (!isa_available(isa)) throw_unavailable(isa);
  switch (isa) {
    case KernelIsa::kAvx512: return *avx512_tmac_plane();
    case KernelIsa::kAvx2: return *avx2_tmac_plane();
    default: return kern_scalar::tmac_kernels();
  }
}

const MathKernels& select_math_kernels(KernelIsa isa) {
  if (isa == KernelIsa::kAuto) return select_math_kernels(resolve_auto());
  if (!isa_available(isa)) throw_unavailable(isa);
  switch (isa) {
    case KernelIsa::kAvx512: return *avx512_math_plane();
    case KernelIsa::kAvx2: return *avx2_math_plane();
    default: return kern_scalar::math_kernels();
  }
}

const MathKernels& math_plane() {
  static const MathKernels& plane = select_math_kernels(KernelIsa::kAuto);
  return plane;
}

}  // namespace biq::engine
