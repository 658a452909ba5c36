// Ablation — LUT construction: dynamic programming (Algorithm 1,
// Tc,dp ~ 2^mu per table) vs the GEMM-style builder (Fig. 4a,
// Tc,mm ~ 2^mu * mu per table). The paper's claim: DP is ~mu times
// cheaper; within a full BiQGEMM invocation the gap shrinks because the
// query phase dominates (Fig. 8).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/biqgemm.hpp"
#include "core/lut_builder.hpp"
#include "core/mu_select.hpp"
#include "engine/registry.hpp"
#include "gemm/gemm_tmac.hpp"
#include "quant/greedy.hpp"
#include "quant/lowbit.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

namespace {

void builder_only() {
  std::printf("-- builder microbenchmark: construct 4096 tables from a "
              "4096*mu-element input --\n");
  biq::TablePrinter table({"mu", "DP us", "MM us", "MM/DP", "model ratio"});
  for (unsigned mu : {4u, 6u, 8u, 10u, 12u}) {
    const std::size_t tables = 4096;
    biq::Rng rng(mu);
    std::vector<float> x(tables * mu);
    biq::fill_normal(rng, x.data(), x.size());
    biq::AlignedBuffer<float> lut((std::size_t{1} << mu));

    const double t_dp = biq::bench::median_seconds([&] {
      for (std::size_t t = 0; t < tables; ++t) {
        biq::build_lut_dp(x.data() + t * mu, mu, mu, lut.data());
      }
    });
    const double t_mm = biq::bench::median_seconds([&] {
      for (std::size_t t = 0; t < tables; ++t) {
        biq::build_lut_mm(x.data() + t * mu, mu, mu, lut.data());
      }
    });
    const double model = static_cast<double>(biq::mm_build_macs(mu)) /
                         static_cast<double>(biq::dp_build_adds(mu));
    table.add_row({std::to_string(mu), biq::bench::us(t_dp, 1),
                   biq::bench::us(t_mm, 1),
                   biq::TablePrinter::fmt(t_mm / t_dp, 2),
                   biq::TablePrinter::fmt(model, 2)});
  }
  std::printf("%s\n", table.to_markdown().c_str());
}

void end_to_end() {
  std::printf("-- whole-kernel effect (m=512 so build is a visible share; "
              "n=1024, mu=8) --\n");
  biq::TablePrinter table({"batch", "DP builder us", "MM builder us",
                           "kernel speedup from DP"});
  biq::Rng rng(3);
  biq::Matrix w = biq::Matrix::random_normal(512, 1024, rng);
  const biq::BinaryCodes codes = biq::quantize_greedy(w, 1);
  for (std::size_t b : {1u, 8u, 32u}) {
    biq::Matrix x = biq::Matrix::random_normal(1024, b, rng);
    biq::Matrix y(512, b);
    biq::BiqGemmOptions dp_opt;
    biq::BiqGemmOptions mm_opt;
    mm_opt.use_dp_builder = false;
    const biq::BiqGemm dp_engine(codes, dp_opt);
    const biq::BiqGemm mm_engine(codes, mm_opt);
    const double t_dp = biq::bench::median_seconds([&] { dp_engine.run(x, y); });
    const double t_mm = biq::bench::median_seconds([&] { mm_engine.run(x, y); });
    table.add_row({std::to_string(b), biq::bench::us(t_dp, 1),
                   biq::bench::us(t_mm, 1),
                   biq::TablePrinter::fmt(t_mm / t_dp, 2) + "x"});
  }
  std::printf("%s\n", table.to_markdown().c_str());
}

// BiQGEMM's alpha-row build vs the T-MAC group build, per batch column
// of n activations, plus what that build costs amortized against the
// engine's own n x n GEMV. The table constructions differ: BiQGEMM
// builds n/mu tables of 2^mu fp32 partial sums from raw floats; T-MAC
// builds ngroups 16-entry int16 tables from an int8-quantized column
// (storage 2: n/2 groups, each table jointly covering 2 activations;
// storage 4: n groups). Entry counts per column at mu=8:
//   biqgemm  (n/8) * 256 = 32n fp32   tmac s2  (n/2) * 16 = 8n int16
//                                     tmac s4   n    * 16 = 16n int16
void tmac_vs_biq_build() {
  std::printf("-- per-column build cost: BiQGEMM alpha-row (mu=8) vs T-MAC "
              "group tables --\n");
  biq::TablePrinter table({"builder", "n", "tables", "entries", "build us",
                           "% of own GEMV"});
  for (std::size_t n : {1024u, 4096u}) {
    biq::Rng rng(n);
    biq::Matrix w = biq::Matrix::random_normal(n, n, rng, 0.0f, 0.05f);
    biq::Matrix x = biq::Matrix::random_normal(n, 1, rng);
    biq::Matrix y(n, 1);

    // The full GEMV each build is a phase of — the amortization base.
    const auto gemv_us = [&](const char* engine_name, unsigned bits) {
      biq::EngineConfig cfg;
      cfg.weight_bits = bits;
      const auto engine = biq::make_engine(engine_name, w, cfg);
      biq::ExecContext ctx;
      const auto plan = engine->plan(1, ctx);
      return biq::bench::median_seconds([&] { plan->run(x, y); });
    };

    // BiQGEMM: n/mu DP tables of 2^mu fp32 entries from the raw column.
    constexpr unsigned mu = 8;
    const std::size_t biq_tables = n / mu;
    biq::AlignedBuffer<float> flut(std::size_t{1} << mu);
    const double t_biq = biq::bench::median_seconds([&] {
      for (std::size_t t = 0; t < biq_tables; ++t) {
        biq::build_lut_dp(x.data() + t * mu, mu, mu, flut.data());
      }
    });
    const double g_biq = gemv_us("biqgemm", 1);
    table.add_row({"biqgemm dp mu=8", std::to_string(n),
                   std::to_string(biq_tables),
                   std::to_string(biq_tables * (std::size_t{1} << mu)),
                   biq::bench::us(t_biq, 1),
                   biq::TablePrinter::fmt(100.0 * t_biq / g_biq, 1) + "%"});

    // T-MAC: int8-quantize the column once (that cost is part of the
    // build phase, so it is timed too), then fill the group tables.
    for (unsigned storage : {2u, 4u}) {
      const std::size_t ngroups =
          storage == 2 ? (n + 1) / 2 : n;  // codes per nibble: 2 vs 1
      std::vector<std::int8_t> xq(n);
      biq::AlignedBuffer<std::uint8_t> lut(ngroups * 32);
      const double t_tmac = biq::bench::median_seconds([&] {
        biq::quantize_column_int8(x.data(), n, xq.data());
        biq::tmac_build_column_lut(xq.data(), n, storage, ngroups, lut.data());
      });
      const double g_tmac = gemv_us("tmac-lut", storage);
      table.add_row({std::string("tmac group s") + std::to_string(storage),
                     std::to_string(n), std::to_string(ngroups),
                     std::to_string(ngroups * 16), biq::bench::us(t_tmac, 1),
                     biq::TablePrinter::fmt(100.0 * t_tmac / g_tmac, 1) + "%"});
    }
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf(
      "Both builds run once per batch column and amortize over the n\n"
      "output rows of that column's GEMV; the %% column is the build's\n"
      "share of its engine's full held-plan GEMV at the same n.\n\n");
}

// Shared LUT build across a QKV-shaped fan-out: three same-shape
// BiQGEMM engines (distinct weights) read one input. The shared arm
// builds the input's LUTs once via prepare() and consumes them three
// times; the rebuilt arm runs the fused path three times, paying the
// build per consumer. The arms compute bitwise-identical outputs (pinned
// by tests/prep_share_test), so the delta is the build amortized away —
// (k-1)/k of the build cost at fan-out k, by the Eq. 6/8 model — less
// the cost of reading the stored tables back.
void shared_vs_rebuilt(biq::bench::BenchJson& json, std::size_t repeats) {
  std::printf("-- shared LUT build across a 3-way fan-out (QKV shape): 1 "
              "build + 3 consumes vs 3x build+consume (n=1024) --\n");
  biq::TablePrinter table(
      {"engine", "batch", "shared us", "rebuilt us", "speedup"});
  const std::size_t n = 1024;
  biq::Rng rng(11);
  const biq::Matrix w1 = biq::Matrix::random_normal(n, n, rng, 0.0f, 0.05f);
  const biq::Matrix w2 = biq::Matrix::random_normal(n, n, rng, 0.0f, 0.05f);
  const biq::Matrix w3 = biq::Matrix::random_normal(n, n, rng, 0.0f, 0.05f);

  const char* name = "biqgemm";
  biq::EngineConfig cfg;
  cfg.weight_bits = 2;
  const auto eq = biq::make_engine(name, w1, cfg);
  const auto ek = biq::make_engine(name, w2, cfg);
  const auto ev = biq::make_engine(name, w3, cfg);
  for (const std::size_t b : {std::size_t{1}, std::size_t{8}}) {
    biq::ExecContext ctx;
    const auto pq = eq->plan(b, ctx);
    const auto pk = ek->plan(b, ctx);
    const auto pv = ev->plan(b, ctx);
    const biq::Matrix x = biq::Matrix::random_normal(n, b, rng);
    biq::Matrix yq(n, b), yk(n, b), yv(n, b);
    biq::AlignedBuffer<float> storage(pq->prep_floats());
    biq::PrepHandle prep(storage.data(), storage.size());

    const auto [shared, rebuilt] = biq::bench::interleaved_ab_seconds(
        [&] {
          pq->prepare(x, prep);
          pq->run(prep, yq);
          pk->run(prep, yk);
          pv->run(prep, yv);
        },
        [&] {
          pq->run(x, yq);
          pk->run(x, yk);
          pv->run(x, yv);
        },
        repeats);

    table.add_row({name, std::to_string(b), biq::bench::us(shared, 1),
                   biq::bench::us(rebuilt, 1),
                   biq::TablePrinter::fmt(rebuilt / shared, 2) + "x"});
    for (const bool share : {true, false}) {
      json.record({biq::bench::jstr("section", "shared_prep"),
                   biq::bench::jstr("engine", name),
                   biq::bench::jint("n", static_cast<long long>(n)),
                   biq::bench::jint("batch", static_cast<long long>(b)),
                   biq::bench::jint("fanout", 3),
                   biq::bench::jstr("share", share ? "on" : "off"),
                   biq::bench::jnum("us", (share ? shared : rebuilt) * 1e6)});
    }
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf(
      "Both arms are bitwise identical; the speedup is the build cost the\n"
      "shared arm did not pay twice more, less the cost of reading every\n"
      "tile's tables back from memory instead of from cache.\n\n");
}

// One stacked Q/K/V plan vs three fused plans at the encoder's width
// (d=512): three BiQGEMM engines with distinct weights read one input.
// The stacked plan (plan_stack) stages and builds each LUT chunk of x
// once and queries all three engines' keys against it; the three fused
// plans each stage and build every chunk themselves. Both arms write
// bitwise-identical rows (pinned by tests/stack_plan_test), so the
// delta is two of every three builds, at no cost in stored tables.
void stacked_vs_fused(biq::bench::BenchJson& json, std::size_t repeats) {
  std::printf("-- one stacked Q/K/V plan vs three fused plans (d=512, "
              "the engines' own mu, 1 thread) --\n");
  biq::TablePrinter table(
      {"bits", "tokens", "stacked us", "3 fused us", "speedup"});
  const std::size_t d = 512;
  biq::Rng rng(13);
  std::vector<biq::Matrix> w;
  for (int p = 0; p < 3; ++p) {
    w.push_back(biq::Matrix::random_normal(d, d, rng, 0.0f, 0.05f));
  }
  for (const unsigned bits : {1u, 2u}) {
    biq::EngineConfig cfg;
    cfg.weight_bits = bits;
    std::vector<std::unique_ptr<biq::GemmEngine>> engines;
    std::vector<biq::StackPart> parts;
    for (const biq::Matrix& wp : w) {
      engines.push_back(biq::make_engine("biqgemm", wp, cfg));
      parts.push_back({engines.back().get(), {}});
    }
    for (const std::size_t t : {std::size_t{32}, std::size_t{128}}) {
      biq::ExecContext ctx;
      const auto stack = biq::plan_stack(parts, t, ctx);
      std::vector<std::unique_ptr<biq::GemmPlan>> fused;
      for (const auto& e : engines) fused.push_back(e->plan(t, ctx));
      const biq::Matrix x = biq::Matrix::random_normal(d, t, rng);
      biq::Matrix yqkv(3 * d, t);

      const auto [stacked, separate] = biq::bench::interleaved_ab_seconds(
          [&] { stack->run(x, yqkv); },
          [&] {
            for (std::size_t p = 0; p < fused.size(); ++p) {
              fused[p]->run(x, yqkv.block(p * d, d, 0, t));
            }
          },
          repeats);

      table.add_row({std::to_string(bits), std::to_string(t),
                     biq::bench::us(stacked, 1), biq::bench::us(separate, 1),
                     biq::TablePrinter::fmt(separate / stacked, 2) + "x"});
      for (const bool stack_on : {true, false}) {
        json.record({biq::bench::jstr("section", "stacked_qkv"),
                     biq::bench::jint("bits", bits),
                     biq::bench::jint("d", static_cast<long long>(d)),
                     biq::bench::jint("tokens", static_cast<long long>(t)),
                     biq::bench::jstr("stacked", stack_on ? "on" : "off"),
                     biq::bench::jnum("us",
                                      (stack_on ? stacked : separate) * 1e6)});
      }
    }
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf(
      "Both arms are bitwise identical; the speedup is the two LUT builds\n"
      "per chunk the stacked plan does not pay, with no stored artifact.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t repeats = biq::bench::parse_repeats(argc, argv);
  biq::bench::BenchJson json(argc, argv, "ablation_lut_build");
  biq::bench::print_header(
      "ablation_lut_build — Algorithm 1 DP vs GEMM-style LUT construction",
      "paper Sec. III-B / Eq. 6: Tc,dp is mu times smaller than Tc,mm");
  builder_only();
  tmac_vs_biq_build();
  shared_vs_rebuilt(json, repeats);
  stacked_vs_fused(json, repeats);
  end_to_end();
  return 0;
}
