// google-benchmark microbenchmarks for the library's primitive kernels:
// LUT builders, the batched query, key packing, and one run() benchmark
// per EngineRegistry entry (registered dynamically from the registry, so
// a newly added backend shows up here without touching this file). These
// complement the figure/table binaries with statistically managed
// per-primitive numbers (and FLOP/byte counters).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/biqgemm.hpp"
#include "core/lut_builder.hpp"
#include "engine/dispatch.hpp"
#include "engine/registry.hpp"
#include "quant/greedy.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cpu_features.hpp"

namespace {

void BM_LutBuildDp(benchmark::State& state) {
  const auto mu = static_cast<unsigned>(state.range(0));
  biq::Rng rng(mu);
  std::vector<float> x(mu);
  biq::fill_normal(rng, x.data(), mu);
  biq::AlignedBuffer<float> lut(std::size_t{1} << mu);
  for (auto _ : state) {
    biq::build_lut_dp(x.data(), mu, mu, lut.data());
    benchmark::DoNotOptimize(lut.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(biq::dp_build_adds(mu)));
}
BENCHMARK(BM_LutBuildDp)->Arg(4)->Arg(8)->Arg(12)->Unit(benchmark::kNanosecond);

void BM_LutBuildMm(benchmark::State& state) {
  const auto mu = static_cast<unsigned>(state.range(0));
  biq::Rng rng(mu);
  std::vector<float> x(mu);
  biq::fill_normal(rng, x.data(), mu);
  biq::AlignedBuffer<float> lut(std::size_t{1} << mu);
  for (auto _ : state) {
    biq::build_lut_mm(x.data(), mu, mu, lut.data());
    benchmark::DoNotOptimize(lut.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(biq::mm_build_macs(mu)));
}
BENCHMARK(BM_LutBuildMm)->Arg(4)->Arg(8)->Arg(12)->Unit(benchmark::kNanosecond);

/// One batch tile at the auto-selected plane's width (8 lanes, 16 on
/// AVX-512): the builder every BiQGEMM batch tile runs.
void BM_LutBuildDpInterleaved(benchmark::State& state) {
  constexpr unsigned mu = 8;
  const biq::engine::KernelPlane& plane =
      biq::engine::select_plane(biq::KernelIsa::kAuto);
  const std::size_t lanes = plane.biq.query_lanes;
  biq::Rng rng(1);
  biq::AlignedBuffer<float> xt(mu * lanes);
  biq::fill_normal(rng, xt.data(), xt.size());
  biq::AlignedBuffer<float> lut((std::size_t{1} << mu) * lanes);
  for (auto _ : state) {
    plane.biq.build_dp(xt.data(), mu, lut.data());
    benchmark::DoNotOptimize(lut.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(plane.isa) + " lanes=" + std::to_string(lanes));
}
BENCHMARK(BM_LutBuildDpInterleaved)->Unit(benchmark::kNanosecond);

/// The batched query (Algorithm 2) on the auto-selected plane: one
/// 16-table mu-8 LUT chunk queried by 2048 output rows of 2 key planes.
/// Items are lookups (rows * planes * tables), so items/s is the
/// per-lookup rate the query loop sustains.
void BM_QueryTile(benchmark::State& state) {
  constexpr unsigned mu = 8;
  constexpr std::size_t rows = 2048, num_planes = 2, tables = 16;
  const biq::engine::KernelPlane& plane =
      biq::engine::select_plane(biq::KernelIsa::kAuto);
  const std::size_t lanes = plane.biq.query_lanes;
  biq::Rng rng(2);
  std::vector<biq::KeyMatrix> keys;
  for (std::size_t q = 0; q < num_planes; ++q) {
    keys.emplace_back(biq::BinaryMatrix::random(rows, tables * mu, rng), mu);
  }
  std::vector<std::vector<float>> alphas(num_planes,
                                         std::vector<float>(rows, 0.5f));
  biq::AlignedBuffer<float> lut(tables * (std::size_t{1} << mu) * lanes);
  biq::fill_normal(rng, lut.data(), lut.size());
  biq::AlignedBuffer<float> ytile(rows * lanes, /*zero_fill=*/true);

  biq::engine::QueryTileArgs a;
  a.keys = keys.data();
  a.num_planes = num_planes;
  a.alphas = alphas.data();
  a.tcount = tables;
  a.mu = mu;
  a.lut = lut.data();
  a.ytile = ytile.data();
  a.i1 = rows;
  for (auto _ : state) {
    plane.biq.query_tile_u8(a);
    benchmark::DoNotOptimize(ytile.data());
    benchmark::ClobberMemory();
  }
  constexpr std::size_t lookups = rows * num_planes * tables;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lookups));
  state.SetLabel(std::string(plane.isa) + " lanes=" + std::to_string(lanes));
}
BENCHMARK(BM_QueryTile)->Unit(benchmark::kMicrosecond);

void BM_KeyPack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  biq::Rng rng(n);
  biq::BinaryMatrix b = biq::BinaryMatrix::random(n, n, rng);
  for (auto _ : state) {
    biq::KeyMatrix keys(b, 8);
    benchmark::DoNotOptimize(keys.rows());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n / 8));
}
BENCHMARK(BM_KeyPack)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_QuantizeGreedy(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  biq::Rng rng(bits);
  biq::Matrix w = biq::Matrix::random_normal(512, 512, rng);
  for (auto _ : state) {
    biq::BinaryCodes codes = biq::quantize_greedy(w, bits);
    benchmark::DoNotOptimize(codes.planes.data());
  }
}
BENCHMARK(BM_QuantizeGreedy)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

/// Planned run of one registry engine at (n x n) weights, batch b. The
/// engine is built and its GemmPlan frozen once outside the timed loop
/// (weight-stationary contract + prepare/execute split), so the loop
/// measures the prepared hot path.
void engine_run_bench(benchmark::State& state, const std::string& name,
                      std::size_t n, std::size_t b) {
  biq::Rng rng(n + b);
  biq::Matrix w = biq::Matrix::random_normal(n, n, rng);
  biq::EngineConfig cfg;
  // tmac-lut runs at its headline 2-bit layout; the binary-plane engines
  // at the paper's 1-bit depth.
  cfg.weight_bits = name == "tmac-lut" ? 2 : 1;
  const std::unique_ptr<biq::GemmEngine> engine = biq::make_engine(name, w, cfg);
  biq::Matrix x = biq::Matrix::random_normal(n, b, rng);
  biq::Matrix y(n, b);
  biq::ExecContext ctx;
  const std::unique_ptr<biq::GemmPlan> plan = engine->plan(b, ctx);
  for (auto _ : state) {
    plan->run(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  // Uniform throughput counter: the 2*n*n*b MACs of the dense product
  // every engine replaces, so items/sec is comparable across engines.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * b));
  state.SetLabel(std::string(engine->name()) + " n=" + std::to_string(n) +
                 " b=" + std::to_string(b));
}

void register_engine_benchmarks(const std::vector<std::string>& filter) {
  struct Shape {
    std::size_t n, b;
  };
  // Slow exhaustive baselines (naive, unpack, xnor at depth 1) get the
  // small shape only; the packed/LUT engines also run the larger ones.
  for (const std::string& name : biq::EngineRegistry::instance().names()) {
    if (!biq::bench::engine_enabled(filter, name)) continue;
    std::vector<Shape> shapes = {{512, 32}};
    if (name == "biqgemm" || name == "biqgemm-grouped" || name == "blocked" ||
        name == "int8" || name == "tmac-lut") {
      shapes.push_back({1024, 1});
      shapes.push_back({1024, 32});
    }
    for (const Shape& s : shapes) {
      benchmark::RegisterBenchmark(
          ("BM_Engine/" + name + "/" + std::to_string(s.n) + "x" +
           std::to_string(s.b))
              .c_str(),
          [name, s](benchmark::State& state) {
            engine_run_bench(state, name, s.n, s.b);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("%s\n", biq::describe_machine().c_str());
  register_engine_benchmarks(biq::bench::parse_engines(argc, argv));
  // Strip --engines <list> before handing argv to google-benchmark,
  // which rejects flags it does not recognize.
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string_view(argv[i]) == "--engines") {
      ++i;
      continue;
    }
    kept.push_back(argv[i]);
  }
  argc = static_cast<int>(kept.size());
  argv = kept.data();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
