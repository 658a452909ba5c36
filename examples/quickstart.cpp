// Quickstart: quantize a weight matrix with binary coding, run BiQGEMM,
// and compare against plain fp32 GEMM — accuracy, speed and memory.
//
//   $ ./quickstart [m] [n] [batch] [bits]
//
// This is the 60-second tour of the public API:
//   EngineRegistry / make_engine("biqgemm", w, cfg) -> packed LUT kernel
//   make_engine("blocked", w)                       -> fp32 baseline
//   engine->run(x, y)                               -> one-shot Y = W . X
//   engine->plan(batch, ctx) -> plan->run(x, y)     -> prepared hot path
// Every kernel comes from the registry by name; the concrete classes
// (BiqGemm, BlockedGemm, ...) never appear here. Each plan picks its ISA
// plane (scalar / AVX2 / AVX-512) from its ExecContext, by default the
// widest one the running CPU supports — the same binary works on
// machines with and without AVX2.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/mu_select.hpp"
#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "util/cpu_features.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  const std::size_t m = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2048;
  const std::size_t n = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1024;
  const std::size_t batch = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 32;
  const unsigned bits = argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)) : 2;

  std::printf("%s\n\n", biq::describe_machine().c_str());
  std::printf("weights %zux%zu, batch %zu, %u-bit binary-coding quantization\n\n",
              m, n, batch, bits);

  // 1. A "trained" fp32 weight matrix and an activation batch.
  biq::Rng rng(42);
  biq::Matrix w = biq::Matrix::random_normal(m, n, rng, 0.0f, 0.05f);
  biq::Matrix x = biq::Matrix::random_normal(n, batch, rng);

  // 2. Configure and build the BiQGEMM engine from the registry. The
  //    factory quantizes (offline step — weights are fixed during
  //    inference) and packs each binary plane into mu-bit keys. With
  //    cfg.kernel.mu unset the engine picks mu from its rows and bit
  //    planes (select_lut_unit); set it to pin one.
  biq::EngineConfig cfg;
  cfg.weight_bits = bits;
  const std::unique_ptr<biq::GemmEngine> engine =
      biq::make_engine("biqgemm", w, cfg);
  std::printf("LUT-unit mu = %u (Eq. 9 would pick %u), kernel plane: %s\n",
              biq::select_lut_unit(m, bits), biq::eq9_mu(m, 8),
              biq::engine::select_plane(biq::KernelIsa::kAuto).isa);

  // 3. Run and compare against the fp32 product (also registry-built).
  const std::unique_ptr<biq::GemmEngine> dense = biq::make_engine("blocked", w);
  biq::Matrix y_quant(m, batch);
  biq::Matrix y_float(m, batch);
  engine->run(x, y_quant);
  dense->run(x, y_float);

  std::printf("relative output error vs fp32: %.4f (from %u-bit quantization)\n",
              biq::rel_fro_error(y_quant, y_float), bits);
  std::printf("weight memory: fp32 %.2f MB -> packed %.2f MB (%.1fx smaller)\n",
              static_cast<double>(m * n * 4) / 1048576.0,
              static_cast<double>(engine->weight_bytes()) / 1048576.0,
              static_cast<double>(m * n * 4) /
                  static_cast<double>(engine->weight_bytes()));

  // 4. Quick timing comparison (median of repeated runs) through the
  //    planned API: the batch is fixed, so plan once — kernel plane,
  //    tile partition and scratch layout are frozen up front — and
  //    plan->run() is the warm, allocation-free hot path.
  biq::ExecContext ctx;
  const std::unique_ptr<biq::GemmPlan> quant_plan = engine->plan(batch, ctx);
  const std::unique_ptr<biq::GemmPlan> dense_plan = dense->plan(batch, ctx);
  const auto t_biq = biq::summarize(biq::measure_repetitions(
      [&] { quant_plan->run(x, y_quant); }, 5, 0.2));
  const auto t_gemm = biq::summarize(biq::measure_repetitions(
      [&] { dense_plan->run(x, y_float); }, 5, 0.2));
  std::printf("%s:   %8.2f us/run (median)\n",
              std::string(engine->name()).c_str(), t_biq.median * 1e6);
  std::printf("%s: %8.2f us/run (median)\n",
              std::string(dense->name()).c_str(), t_gemm.median * 1e6);
  std::printf("speedup:   %.2fx\n", t_gemm.median / t_biq.median);
  return 0;
}
