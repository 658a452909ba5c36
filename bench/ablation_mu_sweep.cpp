// Ablation — LUT-unit mu: measured runtime over mu in [1, 12] next to the
// two models that pick it: the paper's Eq. 9 argmin (Sec. IV-A: "we use
// mu = 8 for our entire tests, close to the value optimized in theory")
// and the engine's rule, argmin of (w 2^mu + m q) / mu over [4, 8]
// (core/mu_select.hpp). Shapes: the paper's 4096 x 1024 layer at b 1 and
// 32, and the Transformer-base encoder's projections (512 x 2048,
// 512 x 512 and 2048 x 512, rows x inputs) at b 32 and 128, 1 and 2
// bits. Every sample times a plan held per (shape, mu) on one thread, so
// plan-time work stays out of the numbers. The sweep exposes Eq. 6's
// trade-off: fewer tables against exponentially larger ones.
//
//   $ ./ablation_mu_sweep [--repeats N]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/biqgemm.hpp"
#include "core/mu_select.hpp"
#include "engine/exec_context.hpp"
#include "quant/greedy.hpp"
#include "util/table_printer.hpp"

namespace {

constexpr unsigned kMaxMu = 12;

void sweep(std::size_t m, std::size_t n, std::size_t b, unsigned bits,
           std::size_t repeats) {
  const unsigned rule = biq::select_lut_unit(m, bits);
  const unsigned eq9 = biq::eq9_mu(m, kMaxMu);
  biq::Rng rng(m * 31 + n + b + bits);
  const biq::Matrix w = biq::Matrix::random_normal(m, n, rng);
  const biq::BinaryCodes codes = biq::quantize_greedy(w, bits);
  const biq::Matrix x = biq::Matrix::random_normal(n, b, rng);
  biq::Matrix y(m, b);
  biq::ExecContext ctx;

  std::vector<double> times;
  std::vector<std::size_t> key_bytes;
  unsigned best = 1;
  for (unsigned mu = 1; mu <= kMaxMu; ++mu) {
    biq::BiqGemmOptions opt;
    opt.mu = mu;
    const biq::BiqGemm engine(codes, opt);
    const auto plan = engine.plan(b, ctx);
    plan->run(x, y);  // warm the arena before timing
    times.push_back(
        biq::bench::bench_seconds([&] { plan->run(x, y); }, repeats));
    key_bytes.push_back(engine.packed_weight_bytes());
    if (times.back() < times[best - 1]) best = mu;
  }

  std::printf(
      "-- m=%zu n=%zu batch=%zu bits=%u: rule mu=%u (%.2fx best), Eq. 9 "
      "mu=%u (%.2fx best), measured best mu=%u --\n",
      m, n, b, bits, rule, times[rule - 1] / times[best - 1], eq9,
      times[eq9 - 1] / times[best - 1], best);
  biq::TablePrinter table({"mu", "measured us", "norm. to best", "Eq.9 factor",
                           "rule cost", "weight bytes"});
  for (unsigned mu = 1; mu <= kMaxMu; ++mu) {
    table.add_row({std::to_string(mu), biq::bench::us(times[mu - 1], 1),
                   biq::TablePrinter::fmt(times[mu - 1] / times[best - 1], 2),
                   biq::TablePrinter::fmt(biq::biqgemm_cost_factor(m, mu), 4),
                   biq::TablePrinter::fmt(biq::lut_unit_cost(m, bits, mu), 1),
                   std::to_string(key_bytes[mu - 1])});
  }
  std::printf("%s\n", table.to_markdown().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  biq::bench::print_header(
      "ablation_mu_sweep — LUT-unit selection: Eq. 9, the engine's rule and "
      "measured time",
      "paper Sec. IV-A: 'we use mu = 8 for our entire tests, close to the "
      "value optimized in theory'");
  const std::size_t repeats = biq::bench::parse_repeats(argc, argv);
  sweep(4096, 1024, 1, 1, repeats);
  sweep(4096, 1024, 32, 1, repeats);
  struct Shape {
    std::size_t m, n;
  };
  for (const Shape s : {Shape{512, 2048}, Shape{512, 512}, Shape{2048, 512}}) {
    for (const unsigned bits : {1u, 2u}) {
      for (const std::size_t b : {32u, 128u}) {
        sweep(s.m, s.n, b, bits, repeats);
      }
    }
  }
  std::printf(
      "Eq. 9 prices one built table entry like one lookup and ignores the\n"
      "bit planes. The rule prices an entry at %u lookups and counts\n"
      "m * bits lookups per table, so 512-row layers get mu 6: larger mu\n"
      "blows up table construction (2^mu entries) and cache footprint,\n"
      "smaller mu makes more tables.\n",
      biq::kLutEntryCost);
  return 0;
}
