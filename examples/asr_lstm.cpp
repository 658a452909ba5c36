// LAS-style ASR encoder workload (paper Sec. II-C): bi-directional LSTM
// layers whose per-step recurrent projections are large GEMVs — the
// b == 1 regime where BiQGEMM shines. Runs a scaled LAS encoder stack fp32 vs
// quantized and reports hidden-state deviation, memory and latency.
//
//   $ ./asr_lstm [frames] [input_dim] [hidden] [bits]
#include <cstdio>
#include <cstdlib>

#include "nn/model_plan.hpp"
#include "util/cpu_features.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  const std::size_t frames = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 24;
  const std::size_t input_dim = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 240;
  const std::size_t hidden = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 256;
  const unsigned bits = argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)) : 2;

  std::printf("%s\n\n", biq::describe_machine().c_str());
  std::printf("BiLSTM encoder: %zu frames, input %zu, hidden %zu per direction\n"
              "(LAS uses 6 encoder layers with (2.5K x 5K) weights; same code\n"
              "path, scaled to laptop size)\n\n",
              frames, input_dim, hidden);

  // One context + one whole-model plan per model: the projection plans
  // of both directions are frozen once and every temporary (all frames'
  // input projections, gate pre-activations, h/c state) lives in one
  // liveness-packed arena, so the timed utterances run the warm
  // zero-allocation path.
  constexpr std::uint64_t kSeedFw = 31, kSeedBw = 32;
  biq::ExecContext fp_ctx, q_ctx;
  const biq::nn::BiLstm fp(
      biq::nn::make_lstm_cell(input_dim, hidden, kSeedFw, {}),
      biq::nn::make_lstm_cell(input_dim, hidden, kSeedBw, {}));

  biq::nn::QuantSpec spec;
  spec.weight_bits = bits;
  const biq::nn::BiLstm quant(
      biq::nn::make_lstm_cell(input_dim, hidden, kSeedFw, spec),
      biq::nn::make_lstm_cell(input_dim, hidden, kSeedBw, spec));

  biq::Rng rng(5);
  const biq::Matrix audio = biq::Matrix::random_normal(input_dim, frames, rng);

  const biq::nn::ModelPlan fp_plan(fp, frames, fp_ctx);
  const biq::nn::ModelPlan quant_plan(quant, frames, q_ctx);
  biq::Matrix h_fp(2 * hidden, frames), h_q(2 * hidden, frames);
  fp_plan.run(audio, h_fp);
  quant_plan.run(audio, h_q);

  const auto t_fp = biq::summarize(
      biq::measure_repetitions([&] { fp_plan.run(audio, h_fp); }, 3, 0.3));
  const auto t_q = biq::summarize(
      biq::measure_repetitions([&] { quant_plan.run(audio, h_q); }, 3, 0.3));

  biq::TablePrinter table({"model", "hidden-state err", "weight MB",
                           "ms/utterance", "ms/frame"});
  table.add_row({"fp32 BiLSTM", "0.0000",
                 biq::TablePrinter::fmt(
                     static_cast<double>(fp.weight_bytes()) / 1048576.0, 2),
                 biq::TablePrinter::fmt(t_fp.median * 1e3, 2),
                 biq::TablePrinter::fmt(t_fp.median * 1e3 / frames, 3)});
  char label[40];
  std::snprintf(label, sizeof(label), "%u-bit BiQGEMM BiLSTM", bits);
  table.add_row({label, biq::TablePrinter::fmt(biq::rel_fro_error(h_q, h_fp), 4),
                 biq::TablePrinter::fmt(
                     static_cast<double>(quant.weight_bytes()) / 1048576.0, 2),
                 biq::TablePrinter::fmt(t_q.median * 1e3, 2),
                 biq::TablePrinter::fmt(t_q.median * 1e3 / frames, 3)});
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("Each direction runs its input projection once over all\n"
              "frames, then one batch-1 BiQGEMM call per step (the recurrent\n"
              "projection) — the memory-bound GEMV regime of the paper's\n"
              "Table IV, where the LUT kernel wins most.\n");
  return 0;
}
