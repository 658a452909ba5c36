#include "engine/dispatch.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/cpu_features.hpp"

namespace biq::engine {
namespace {

const KernelPlane* avx2_plane() noexcept {
#if BIQ_HAVE_AVX2_TU
  return &kern_avx2::plane();
#else
  return nullptr;
#endif
}

const KernelPlane* avx512_plane() noexcept {
#if BIQ_HAVE_AVX512_TU
  return &kern_avx512::plane();
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
      std::string("select_plane: ISA plane '") + isa_name(isa) +
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

const KernelPlane& select_plane(KernelIsa isa) {
  if (isa == KernelIsa::kAuto) return select_plane(resolve_auto());
  if (!isa_available(isa)) throw_unavailable(isa);
  switch (isa) {
    case KernelIsa::kAvx512: return *avx512_plane();
    case KernelIsa::kAvx2: return *avx2_plane();
    default: return kern_scalar::plane();
  }
}

}  // namespace biq::engine
