// LUT-unit tuning walkthrough: the mu the Eq. 9 model predicts, the mu
// the engine's own rule picks (core/mu_select.hpp), and measured kernel
// time on this machine — the methodology behind the paper's statement
// that "mu = 8 turns out to be close to the value optimized in theory",
// which holds for its 1K-4K-row layers, not for 512 rows.
//
//   $ ./mu_tuning [m] [n] [batch] [max_mu]
#include <cstdio>
#include <cstdlib>

#include <memory>

#include "core/key_matrix.hpp"
#include "core/mu_select.hpp"
#include "engine/exec_context.hpp"
#include "engine/registry.hpp"
#include "util/cpu_features.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  const std::size_t m = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2048;
  const std::size_t n = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 1024;
  const std::size_t batch = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 32;
  const unsigned max_mu = argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)) : 12;

  std::printf("%s\n\n", biq::describe_machine().c_str());
  const unsigned predicted = biq::eq9_mu(m, max_mu);
  const unsigned picked = biq::select_lut_unit(m, 1);
  std::printf("shape m=%zu n=%zu b=%zu: Eq. 9 predicts mu = %u, the engine's "
              "rule picks mu = %u\n\n",
              m, n, batch, predicted, picked);

  biq::Rng rng(11);
  biq::Matrix w = biq::Matrix::random_normal(m, n, rng);
  // Quantization is the offline step: do it once and hand the codes to
  // every per-mu engine build through EngineConfig::codes.
  const biq::BinaryCodes codes =
      biq::quantize(w, 1, biq::QuantMethod::kGreedy);
  biq::Matrix x = biq::Matrix::random_normal(n, batch, rng);
  biq::Matrix y(m, batch);

  biq::TablePrinter table({"mu", "model cost (Eq.9)", "rule cost",
                           "measured us", "tables", "LUT entries/table"});
  double best_time = 1e30;
  unsigned best_mu = 1;
  // One registry-built engine per candidate mu (1-bit quantization, the
  // kernel-comparison configuration); the concrete type never appears.
  // Each engine is timed through its held GemmPlan — the prepare/execute
  // split users serve traffic with — so the sweep measures the warm
  // kernel, not per-call planning overhead.
  biq::ExecContext ctx;
  biq::EngineConfig cfg;
  cfg.codes = &codes;
  for (unsigned mu = 1; mu <= max_mu; ++mu) {
    cfg.kernel.mu = mu;
    const std::unique_ptr<biq::GemmEngine> engine =
        biq::make_engine("biqgemm", w, cfg);
    const std::unique_ptr<biq::GemmPlan> plan = engine->plan(batch, ctx);
    plan->run(x, y);  // warm the scratch arenas before timing
    const auto t = biq::summarize(
        biq::measure_repetitions([&] { plan->run(x, y); }, 3, 0.1));
    if (t.median < best_time) {
      best_time = t.median;
      best_mu = mu;
    }
    table.add_row({std::to_string(mu),
                   biq::TablePrinter::fmt(biq::biqgemm_cost_factor(m, mu), 4),
                   biq::TablePrinter::fmt(biq::lut_unit_cost(m, 1, mu), 1),
                   biq::TablePrinter::fmt(t.median * 1e6, 1),
                   std::to_string(biq::table_count(n, mu)),
                   std::to_string(1u << mu)});
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("Eq. 9 argmin: mu=%u | rule: mu=%u | measured argmin: mu=%u\n",
              predicted, picked, best_mu);
  std::printf("(Eq. 9 prices a built table entry like one lookup and ignores\n"
              "the bit planes; the rule prices an entry at %u lookups.)\n",
              biq::kLutEntryCost);
  return 0;
}
