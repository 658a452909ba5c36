// Ablation — group-wise scale factors (extension; the refinement the
// LUT-GEMM follow-on line adopted): accuracy/storage/runtime trade-off
// of per-group vs per-row scales at fixed bit-width.
//
// Two weight profiles:
//  * iid Gaussian (control): every group has the same magnitude
//    statistics, so group scales can barely help — a useful null result.
//  * heterogeneous: per-block magnitudes vary ~16x across each row
//    (the outlier structure real trained weights exhibit, and the reason
//    the LLM-era follow-on work adopted group scales).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/biqgemm.hpp"
#include "gemm/gemm_ref.hpp"
#include "quant/greedy.hpp"
#include "quant/grouped.hpp"
#include "util/table_printer.hpp"

namespace {

constexpr std::size_t kM = 1024, kN = 1024, kB = 32;

biq::Matrix heterogeneous_weights(biq::Rng& rng) {
  biq::Matrix w = biq::Matrix::random_normal(kM, kN, rng, 0.0f, 0.05f);
  // Per-row, per-16-column-block magnitude drawn log-uniform over ~16x.
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t block = 0; block < kN / 16; ++block) {
      const float mag = std::exp2(rng.uniform(-2.0f, 2.0f));
      for (std::size_t j = block * 16; j < (block + 1) * 16; ++j) {
        w(i, j) *= mag;
      }
    }
  }
  return w;
}

void study(const char* profile, const biq::Matrix& w, const biq::Matrix& x) {
  std::printf("-- %s weights (m=%zu, n=%zu, b=%zu, mu=8) --\n", profile, kM,
              kN, kB);
  biq::Matrix exact(kM, kB), y(kM, kB);
  biq::gemm_ref(w, x, exact);

  biq::TablePrinter table({"scales", "bits", "rel output err", "weight KB",
                           "kernel us"});
  // Every engine at the paper's mu, so the kernel column compares scales.
  biq::BiqGemmOptions opt;
  opt.mu = 8;
  for (unsigned bits : {1u, 2u}) {
    {
      const biq::BiqGemm kernel(biq::quantize_greedy(w, bits), opt);
      kernel.run(x, y);
      const double t = biq::bench::median_seconds([&] { kernel.run(x, y); });
      table.add_row({"per-row (paper)", std::to_string(bits),
                     biq::TablePrinter::fmt(biq::rel_fro_error(y, exact), 4),
                     std::to_string(kernel.packed_weight_bytes() / 1024),
                     biq::bench::us(t, 1)});
    }
    for (std::size_t group : {256u, 64u, 16u}) {
      const biq::BiqGemm kernel(
          biq::quantize_greedy_grouped(w, bits, group), opt);
      kernel.run(x, y);
      const double t = biq::bench::median_seconds([&] { kernel.run(x, y); });
      char label[32];
      std::snprintf(label, sizeof(label), "group %zu", group);
      table.add_row({label, std::to_string(bits),
                     biq::TablePrinter::fmt(biq::rel_fro_error(y, exact), 4),
                     std::to_string(kernel.packed_weight_bytes() / 1024),
                     biq::bench::us(t, 1)});
    }
  }
  std::printf("%s\n", table.to_markdown().c_str());
}

}  // namespace

int main() {
  biq::bench::print_header(
      "ablation_grouped_scales — per-group scales vs per-row scales",
      "extension beyond the paper (its future-work direction, adopted by "
      "the LUT-GEMM line): error, storage and runtime vs scale-group size");

  biq::Rng rng(1);
  const biq::Matrix w_iid = biq::Matrix::random_normal(kM, kN, rng, 0.0f, 0.05f);
  const biq::Matrix w_het = heterogeneous_weights(rng);
  const biq::Matrix x = biq::Matrix::random_normal(kN, kB, rng);

  study("iid Gaussian (control)", w_iid, x);
  study("heterogeneous-magnitude", w_het, x);

  std::printf(
      "Reading: on iid weights group scales cannot help (all groups share\n"
      "one magnitude) — the error column barely moves. On heterogeneous\n"
      "weights, 1-bit + group-16 scales should rival per-row 2-bit error\n"
      "at roughly half the weight footprint. The grouped kernel pays a\n"
      "runtime premium at small group sizes (smaller LUT tiles + one\n"
      "scale multiply per group); group >= 64 keeps it moderate.\n");
  return 0;
}
