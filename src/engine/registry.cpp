#include "engine/registry.hpp"

#include <stdexcept>
#include <utility>

#include "core/biqgemm.hpp"
#include "core/mu_select.hpp"
#include "gemm/gemm_blocked.hpp"
#include "gemm/gemm_int8.hpp"
#include "gemm/gemm_ref.hpp"
#include "gemm/gemm_tmac.hpp"
#include "gemm/gemm_unpack.hpp"
#include "gemm/xnor_gemm.hpp"
#include "quant/grouped.hpp"

namespace biq {
namespace {

/// make(codes) over cfg.codes when supplied (read in place, never
/// copied), else over w quantized per the config.
template <typename Make>
auto with_codes(const Matrix& w, const EngineConfig& cfg, Make&& make) {
  if (cfg.codes != nullptr) return make(*cfg.codes);
  return make(quantize(w, cfg.weight_bits, cfg.method));
}

}  // namespace

EngineRegistry::EngineRegistry() {
  add({"biqgemm",
       "the paper's LUT kernel over binary-coding quantized weights",
       /*quantized=*/true,
       [](const Matrix& w, const EngineConfig& cfg) {
         return with_codes(w, cfg, [&](const BinaryCodes& codes) {
           return std::make_unique<BiqGemm>(codes, cfg.kernel);
         });
       }});
  add({"biqgemm-grouped",
       "BiQGEMM with group-wise scales (LUT-GEMM-style refinement)",
       /*quantized=*/true,
       [](const Matrix& w, const EngineConfig& cfg) {
         // Scale groups of four LUT tables: 4 * mu inputs each, mu
         // resolved first (the per-row rule when unset) and pinned so the
         // engine keeps the mu its groups were cut for.
         BiqGemmOptions opt = cfg.kernel;
         opt.mu = opt.mu.value_or(select_lut_unit(w.rows(), cfg.weight_bits));
         const std::size_t group = std::size_t{4} * *opt.mu;
         return std::make_unique<BiqGemm>(
             quantize_greedy_grouped(w, cfg.weight_bits, group), opt);
       }});
  add({"blocked",
       "cache-blocked fp32 GEMM (the vendor-library stand-in)",
       /*quantized=*/false,
       [](const Matrix& w, const EngineConfig&) {
         return std::make_unique<BlockedGemm>(w);
       }});
  add({"naive",
       "unblocked fp32 triple loop (the paper's kCpu baseline)",
       /*quantized=*/false,
       [](const Matrix& w, const EngineConfig&) {
         return std::make_unique<NaiveGemm>(w);
       }});
  add({"int8",
       "uniform fixed-point GEMM with on-the-fly activation quantization",
       /*quantized=*/true,
       [](const Matrix& w, const EngineConfig&) {
         return std::make_unique<Int8Gemm>(w);
       }});
  add({"unpack",
       "GEMM over bit-packed weights, Algorithm-3 unpack before multiply",
       /*quantized=*/true,
       [](const Matrix& w, const EngineConfig& cfg) {
         return with_codes(w, cfg, [](const BinaryCodes& codes) {
           return std::make_unique<UnpackGemm>(codes);
         });
       }});
  add({"xnor",
       "XNOR-popcount GEMM, both weights and activations binarized",
       /*quantized=*/true,
       [](const Matrix& w, const EngineConfig& cfg) {
         return with_codes(w, cfg, [&](const BinaryCodes& codes) {
           return std::make_unique<XnorGemm>(codes, cfg.activation_bits);
         });
       }});
  add({"tmac-lut",
       "grouped-LUT GEMM: 1-4-bit integer weight codes, int8 activations",
       /*quantized=*/true,
       [](const Matrix& w, const EngineConfig& cfg) {
         return std::make_unique<TmacLutGemm>(w, cfg.weight_bits);
       }});
}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

void EngineRegistry::add(EngineSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("EngineRegistry::add: empty name");
  }
  if (!spec.make) {
    throw std::invalid_argument("EngineRegistry::add: missing factory for '" +
                                spec.name + "'");
  }
  if (contains(spec.name)) {
    throw std::invalid_argument("EngineRegistry::add: duplicate engine '" +
                                spec.name + "'");
  }
  specs_.push_back(std::move(spec));
}

const EngineSpec* EngineRegistry::find(std::string_view name) const noexcept {
  for (const EngineSpec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const EngineSpec& spec : specs_) out.push_back(spec.name);
  return out;
}

std::unique_ptr<GemmEngine> EngineRegistry::make(std::string_view name,
                                                 const Matrix& w,
                                                 const EngineConfig& cfg) const {
  const EngineSpec* spec = find(name);
  if (spec == nullptr) {
    std::string known;
    for (const EngineSpec& s : specs_) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    throw std::invalid_argument("EngineRegistry::make: unknown engine '" +
                                std::string(name) + "' (registered: " + known +
                                ")");
  }
  return spec->make(w, cfg);
}

std::unique_ptr<GemmEngine> make_engine(std::string_view name, const Matrix& w,
                                        const EngineConfig& cfg) {
  return EngineRegistry::instance().make(name, w, cfg);
}

}  // namespace biq
