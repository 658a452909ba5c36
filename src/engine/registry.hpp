// EngineRegistry — the single integration point between weight matrices
// and kernels. Every built-in GemmEngine registers itself here with a
// factory that builds it from fp32 weights plus an EngineConfig; the nn
// layers, benches and examples look engines up by name instead of
// constructing concrete kernel types. Adding a backend (a DeepGEMM-style
// uLUT plane, an AVX-512 kernel, ...) is therefore one add() call — no
// integration-surface changes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "engine/gemm_engine.hpp"
#include "matrix/matrix.hpp"
#include "quant/quantize.hpp"

namespace biq {

/// Everything a factory may consume when building an engine from fp32
/// weights. Engines ignore fields that do not apply to them.
struct EngineConfig {
  /// Binary-coding planes for the quantized engines (biqgemm, unpack,
  /// xnor, biqgemm-grouped). Dense engines ignore it.
  unsigned weight_bits = 1;
  QuantMethod method = QuantMethod::kGreedy;
  /// Pre-quantized codes for biqgemm / unpack / xnor (weights are fixed
  /// at inference, so quantization is an offline step a caller may have
  /// already done — e.g. once for a whole mu sweep). When set, those
  /// factories use it verbatim (w, weight_bits and method are ignored);
  /// it must describe the same weight matrix (biqgemm throws
  /// std::invalid_argument when its planes or scales disagree with its
  /// rows x cols). Not owned; must outlive the make() call only
  /// (engines pack their own copies).
  const BinaryCodes* codes = nullptr;
  /// Kernel options: mu / tiling / builder of the LUT engines. Threading
  /// and the kernel plane are NOT configured here — pass an ExecContext
  /// with a pool and an isa to plan() or run().
  BiqGemmOptions kernel;
  /// On-the-fly activation quantization depth of the xnor engine.
  unsigned activation_bits = 1;
};

struct EngineSpec {
  std::string name;
  std::string summary;
  /// True when run() approximates W.X through quantization (so
  /// comparisons against the fp32 product need a tolerance).
  bool quantized = false;
  std::function<std::unique_ptr<GemmEngine>(const Matrix& w,
                                            const EngineConfig& cfg)>
      make;
};

class EngineRegistry {
 public:
  /// Process-wide registry, pre-populated with the built-in engines.
  /// Not synchronized: register extra backends during startup, before
  /// concurrent lookups begin.
  static EngineRegistry& instance();

  /// Registers a backend; throws std::invalid_argument on a duplicate
  /// or empty name or a missing factory.
  void add(EngineSpec spec);

  [[nodiscard]] const EngineSpec* find(std::string_view name) const noexcept;
  [[nodiscard]] bool contains(std::string_view name) const noexcept {
    return find(name) != nullptr;
  }
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }
  [[nodiscard]] const std::vector<EngineSpec>& specs() const noexcept {
    return specs_;
  }

  /// Builds the named engine; throws std::invalid_argument for unknown
  /// names (the message lists what is registered).
  [[nodiscard]] std::unique_ptr<GemmEngine> make(
      std::string_view name, const Matrix& w,
      const EngineConfig& cfg = {}) const;

 private:
  EngineRegistry();  // registers the built-ins

  std::vector<EngineSpec> specs_;
};

/// Shorthand for EngineRegistry::instance().make(...).
[[nodiscard]] std::unique_ptr<GemmEngine> make_engine(
    std::string_view name, const Matrix& w, const EngineConfig& cfg = {});

}  // namespace biq
