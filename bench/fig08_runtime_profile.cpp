// Fig. 8 — runtime proportion of BiQGEMM's LUT build vs its query (with
// the tile write-back) as output size m grows, for n in {1K, 2K} and
// batch 32. Paper finding: query dominates and its share grows with m,
// because each extra output row adds retrieval work but no build work.
//
// The split is the engine's own prepare/consume seam, the one perfbench
// reports per layer: a held plan's prepare(x, prep) builds every LUT
// (Algorithm 1), and run(prep, y) queries them and writes y back
// (Algorithm 2). Both run on the plan's ExecContext, so the split holds
// at any thread count. The fused run(x, y) is timed alongside: it builds
// each LUT tile next to its query, so it is usually a little faster than
// the two halves added together.
#include <cstdio>

#include "bench_common.hpp"
#include "core/biqgemm.hpp"
#include "util/aligned_buffer.hpp"
#include "util/table_printer.hpp"

namespace {

void profile_for_input_size(std::size_t n) {
  constexpr std::size_t kBatch = 32;
  std::printf("-- n = %zu, batch = %zu, 1-bit weights, mu = 8 --\n", n, kBatch);
  biq::TablePrinter table({"output size m", "query+write-back %", "build %",
                           "build us", "query+write-back us", "fused us"});

  for (std::size_t m : {512u, 1024u, 2048u, 4096u, 8192u}) {
    biq::Rng rng(m + n);
    biq::BinaryMatrix plane = biq::BinaryMatrix::random(m, n, rng);
    biq::Matrix x = biq::Matrix::random_normal(n, kBatch, rng);
    biq::Matrix y(m, kBatch);

    biq::BiqGemmOptions opt;
    opt.mu = 8;  // the paper's LUT unit, pinned over the engine's own pick
    const biq::BiqGemm engine(plane, opt);
    // Fixed batch: hold the plan so per-call planning stays out of the
    // timings.
    biq::ExecContext ctx;
    const std::unique_ptr<biq::GemmPlan> plan = engine.plan(kBatch, ctx);
    biq::AlignedBuffer<float> storage(plan->prep_floats());
    biq::PrepHandle prep(storage.data(), storage.size());

    const double build =
        biq::bench::median_seconds([&] { plan->prepare(x, prep); });
    const double query =
        biq::bench::median_seconds([&] { plan->run(prep, y); });
    const double fused = biq::bench::median_seconds([&] { plan->run(x, y); });

    const double total = build + query;
    table.add_row({std::to_string(m),
                   biq::TablePrinter::fmt(100.0 * query / total, 1),
                   biq::TablePrinter::fmt(100.0 * build / total, 1),
                   biq::bench::us(build, 1), biq::bench::us(query, 1),
                   biq::bench::us(fused, 1)});
  }
  std::printf("%s\n", table.to_markdown().c_str());
}

}  // namespace

int main() {
  biq::bench::print_header(
      "fig08_runtime_profile — BiQGEMM LUT build vs query + write-back",
      "paper Fig. 8 (a) n=1K and (b) n=2K, b=32; expectation: query share "
      "rises with m and dominates at every size");
  profile_for_input_size(1024);
  profile_for_input_size(2048);
  return 0;
}
