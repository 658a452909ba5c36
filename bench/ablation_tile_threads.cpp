// Ablation — LUT-stationary tiling and threading (paper Sec. III-B/III-C
// design discussion): how the tables-per-tile choice (LUT tile height,
// Fig. 7) affects the BiQGEMM kernel, and how EVERY registered engine
// scales across worker counts now that call-time ExecContexts route all
// backends through the shared partitioner. Every sample times a plan
// held per (engine, batch, threads), the serving hot path, so plan-time
// work (workspace sizing, frame staging) stays out of the numbers.
// --engines a,b,c restricts the engine sweep (the tile sweep runs only
// when biqgemm passes the filter), --repeats N caps every measurement at
// N runs, and --json emits BENCH_ablation_tile_threads.json for the perf
// trajectory.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/biqgemm.hpp"
#include "quant/greedy.hpp"
#include "util/table_printer.hpp"

namespace {

void tile_sweep(biq::bench::BenchJson& json, std::size_t repeats) {
  std::printf("-- tables per LUT tile (m=2048, n=2048, b=32, mu=8; LUT tile "
              "bytes = tables * 256 entries * lanes * 4) --\n");
  biq::Rng rng(1);
  biq::Matrix w = biq::Matrix::random_normal(2048, 2048, rng);
  const biq::BinaryCodes codes = biq::quantize_greedy(w, 1);
  biq::Matrix x = biq::Matrix::random_normal(2048, 32, rng);
  biq::Matrix y(2048, 32);

  biq::TablePrinter table({"tables/tile", "us"});
  for (std::size_t tiles : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    biq::BiqGemmOptions opt;
    opt.tables_per_tile = tiles;
    const biq::BiqGemm engine(codes, opt);
    biq::ExecContext ctx;
    const auto plan = engine.plan(32, ctx);
    const double t =
        biq::bench::bench_seconds([&] { plan->run(x, y); }, repeats);
    table.add_row({std::to_string(tiles), biq::bench::us(t, 1)});
    json.record({biq::bench::jstr("sweep", "tables_per_tile"),
                 biq::bench::jint("tables_per_tile",
                                  static_cast<long long>(tiles)),
                 biq::bench::jnum("us", t * 1e6)});
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("Expectation: flat once the tile covers a few KB, degrading\n"
              "when the LUT tile outgrows L1/L2 — the 'available range of\n"
              "tile size is highly constrained' point of Sec. III-C.\n\n");
}

void engine_thread_sweep(biq::bench::BenchJson& json,
                         const std::vector<std::string>& filter,
                         std::size_t repeats) {
  constexpr std::size_t m = 1024, n = 1024;
  std::printf("-- engine x threads (m=%zu, n=%zu, b = 1 / 8 / 32, 2-bit "
              "weights; held plan per engine, batch and thread count) --\n",
              m, n);
  biq::Rng rng(2);
  biq::Matrix w = biq::Matrix::random_normal(m, n, rng);

  biq::EngineConfig cfg;
  cfg.weight_bits = 2;

  const std::vector<unsigned> thread_counts = {1u, 2u, 4u};
  std::vector<std::string> header = {"engine", "b"};
  for (unsigned t : thread_counts) {
    header.push_back(std::to_string(t) + "T us");
  }
  header.push_back("best speedup");
  biq::TablePrinter table(header);

  for (const std::string& name : biq::EngineRegistry::instance().names()) {
    if (!biq::bench::engine_enabled(filter, name)) continue;
    const auto engine = biq::make_engine(name, w, cfg);
    // b = 1 is the GEMV (one column cut into a row range per worker),
    // b = 8 one BiQGEMM batch tile split into row ranges, b = 32 whole
    // columns (or two to four batch tiles, by plane) in parallel.
    for (const std::size_t b : {std::size_t{1}, std::size_t{8},
                                std::size_t{32}}) {
      const biq::Matrix x = biq::Matrix::random_normal(n, b, rng);
      biq::Matrix y(m, b);
      std::vector<std::string> row = {name, std::to_string(b)};
      double serial = 0.0, best = 0.0;
      for (unsigned threads : thread_counts) {
        biq::ThreadPool pool(threads);
        biq::ExecContext ctx(&pool);
        const auto plan = engine->plan(b, ctx);
        const double t =
            biq::bench::bench_seconds([&] { plan->run(x, y); }, repeats);
        if (threads == 1) serial = t;
        best = best == 0.0 ? t : std::min(best, t);
        row.push_back(biq::bench::us(t, 1));
        json.record({biq::bench::jstr("sweep", "engine_threads"),
                     biq::bench::jstr("engine", name),
                     biq::bench::jint("batch", static_cast<long long>(b)),
                     biq::bench::jint("threads", threads),
                     biq::bench::jnum("us", t * 1e6)});
      }
      row.push_back(biq::TablePrinter::fmt(serial / best, 2) + "x");
      table.add_row(row);
    }
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("Note: this host exposes %u hardware thread(s); oversubscribed\n"
              "pools exercise correctness of the parallel path rather than\n"
              "speedup (paper: 'multithreading linearly improves performance\n"
              "of both BiQGEMM and GEMM').\n",
              biq::cpu_features().logical_cores);
}

}  // namespace

int main(int argc, char** argv) {
  biq::bench::print_header(
      "ablation_tile_threads — LUT tile size and engine x threads scaling",
      "paper Sec. III-B tiling (Fig. 7) and Sec. III-C / IV-D threading "
      "remarks");
  biq::bench::BenchJson json(argc, argv, "ablation_tile_threads");
  const std::size_t repeats = biq::bench::parse_repeats(argc, argv);
  const std::vector<std::string> filter = biq::bench::parse_engines(argc, argv);
  if (biq::bench::engine_enabled(filter, "biqgemm")) tile_sweep(json, repeats);
  engine_thread_sweep(json, filter, repeats);
  return 0;
}
