// Hybrid model composition through the module IR: a Transformer encoder
// stack feeding a BiLSTM feeding a linear classifier head, assembled
// with nn::Sequential and compiled by the SAME generic walker every
// single-model plan uses — no per-model compile path exists anymore.
// The paper's workloads (Sec. II-C: NMT encoders, LAS-style ASR stacks)
// mix exactly these blocks; this is the serving shape for one of them.
// Self-check: the plan compiled on a 1-thread context and the plan
// compiled on a 2-thread pool must agree bitwise; the program exits
// non-zero if they diverge.
//
//   $ ./hybrid_encoder_lstm [tokens] [hidden] [enc_layers] [bits]
#include <cstdio>
#include <cstdlib>

#include <memory>
#include <vector>

#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "threading/thread_pool.hpp"
#include "util/cpu_features.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace {

/// Encoder -> BiLSTM -> Linear head.
biq::nn::Sequential build_hybrid(std::size_t hidden, unsigned enc_layers,
                                 const biq::nn::QuantSpec& spec,
                                 std::size_t classes) {
  biq::nn::TransformerConfig cfg;
  cfg.hidden = hidden;
  cfg.ffn = 4 * hidden;
  cfg.heads = 8;
  cfg.layers = enc_layers;

  const std::size_t lstm_hidden = hidden / 2;
  biq::nn::Sequential model;
  model.add(std::make_unique<biq::nn::TransformerEncoder>(
      biq::nn::make_encoder(cfg, 2020, spec)));
  model.add(std::make_unique<biq::nn::BiLstm>(
      biq::nn::make_lstm_cell(hidden, lstm_hidden, 31, spec),
      biq::nn::make_lstm_cell(hidden, lstm_hidden, 32, spec)));
  biq::Rng wrng(7);
  const biq::Matrix head =
      biq::nn::xavier_uniform(classes, 2 * lstm_hidden, wrng);
  model.add(biq::nn::make_linear(head, std::vector<float>(classes, 0.0f),
                                 spec.weight_bits, spec.method, spec.kernel));
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t tokens = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 18;
  const std::size_t hidden = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 128;
  const auto enc_layers =
      argc > 3 ? static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10)) : 2;
  const unsigned bits =
      argc > 4 ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10)) : 2;
  const std::size_t classes = 64;

  std::printf("%s\n\n", biq::describe_machine().c_str());
  std::printf("hybrid: %u-layer encoder (hidden %zu) -> BiLSTM (hidden %zu "
              "per direction) -> %zu-class head, %zu tokens\n\n",
              enc_layers, hidden, hidden / 2, classes, tokens);

  biq::Rng rng(5);
  const biq::Matrix input = biq::Matrix::random_normal(hidden, tokens, rng);

  biq::TablePrinter table({"weights", "output err vs fp32", "1-thread ms",
                           "2-thread ms", "arena KB"});
  biq::Matrix y_fp(classes, tokens);
  biq::ThreadPool pool(2);

  for (const unsigned weight_bits : {0u, bits}) {
    biq::nn::QuantSpec spec;
    spec.weight_bits = weight_bits;
    const biq::nn::Sequential model =
        build_hybrid(hidden, enc_layers, spec, classes);

    // One compiled program per context; the engines partition work so
    // that the thread count never changes a bit of the output.
    biq::ExecContext serial_ctx, pooled_ctx(&pool);
    const biq::nn::ModelPlan plan(model, tokens, serial_ctx);
    const biq::nn::ModelPlan pooled_plan(model, tokens, pooled_ctx);
    biq::Matrix planned(classes, tokens), pooled(classes, tokens);
    plan.run(input, planned);  // also warms the arenas
    pooled_plan.run(input, pooled);
    const auto t_serial = biq::summarize(
        biq::measure_repetitions([&] { plan.run(input, planned); }, 3, 0.2));
    const auto t_pooled = biq::summarize(biq::measure_repetitions(
        [&] { pooled_plan.run(input, pooled); }, 3, 0.2));

    if (biq::max_abs_diff(planned, pooled) != 0.0f) {
      std::fprintf(stderr, "FATAL: the 2-thread plan diverged from the "
                           "1-thread plan\n");
      return 1;
    }
    if (weight_bits == 0) biq::nn::copy_into(planned, y_fp);

    char label[32];
    if (weight_bits == 0) {
      std::snprintf(label, sizeof(label), "fp32");
    } else {
      std::snprintf(label, sizeof(label), "binary %u-bit", weight_bits);
    }
    table.add_row(
        {label,
         weight_bits == 0
             ? "0.0000"
             : biq::TablePrinter::fmt(biq::rel_fro_error(planned, y_fp), 4),
         biq::TablePrinter::fmt(t_serial.median * 1e3, 2),
         biq::TablePrinter::fmt(t_pooled.median * 1e3, 2),
         biq::TablePrinter::fmt(static_cast<double>(plan.arena_bytes()) / 1024.0,
                                1)});
  }

  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("All three stages compiled through plan_chain: inter-stage\n"
              "activations are planner slots, every projection's GemmPlan is\n"
              "frozen, and the warm planned run allocates nothing.\n");
  return 0;
}
