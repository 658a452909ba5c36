// Whole-model planned execution: the ModelPlan forward (all GEMM plans
// frozen up front with bias / activation / residual / LayerNorm folded
// into their epilogues, activations liveness-packed into one arena,
// zero-allocation warm runs) for a Transformer encoder, a BiLSTM, a
// 4-deep stacked BiLSTM pyramid and an encoder+BiLSTM+head hybrid — the
// last two composed with nn::Sequential and compiled through the same
// generic module walker as the single models. Run with --json to emit
// BENCH_model_forward.json for the perf trajectory.
//
//   $ ./model_forward [tokens] [layers] [hidden] [--json] [--repeats N]
//                     [--threads N]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "threading/thread_pool.hpp"
#include "util/table_printer.hpp"

namespace {

std::string arena_cell(const biq::nn::ModelPlan& plan) {
  return biq::TablePrinter::fmt(
             static_cast<double>(plan.arena_bytes()) / 1024.0, 1) +
         " / " +
         biq::TablePrinter::fmt(
             static_cast<double>(plan.unpacked_floats() * 4) / 1024.0, 1);
}

/// 4-deep stacked BiLSTM pyramid: each level's 2h output feeds the next
/// level, halving the per-direction width (the LAS encoder shape).
biq::nn::Sequential make_pyramid(std::size_t input,
                                 const biq::nn::QuantSpec& spec) {
  biq::nn::Sequential pyramid;
  std::size_t rows = input;
  std::size_t h = input / 2;
  std::uint64_t seed = 40;
  for (int level = 0; level < 4; ++level) {
    pyramid.add(std::make_unique<biq::nn::BiLstm>(
        biq::nn::make_lstm_cell(rows, h, seed, spec),
        biq::nn::make_lstm_cell(rows, h, seed + 1, spec)));
    seed += 2;
    rows = 2 * h;
    h = h > 8 ? h / 2 : h;
  }
  return pyramid;
}

/// Encoder stack -> BiLSTM -> linear head (the hybrid only the generic
/// walker can compile).
biq::nn::Sequential make_hybrid(const biq::nn::TransformerConfig& cfg,
                                const biq::nn::QuantSpec& spec) {
  const std::size_t lstm_hidden = cfg.hidden / 2;
  biq::nn::Sequential hybrid;
  hybrid.add(std::make_unique<biq::nn::TransformerEncoder>(
      biq::nn::make_encoder(cfg, 2020, spec)));
  hybrid.add(std::make_unique<biq::nn::BiLstm>(
      biq::nn::make_lstm_cell(cfg.hidden, lstm_hidden, 61, spec),
      biq::nn::make_lstm_cell(cfg.hidden, lstm_hidden, 62, spec)));
  biq::Rng wrng(9);
  const biq::Matrix head =
      biq::nn::xavier_uniform(cfg.hidden, 2 * lstm_hidden, wrng);
  hybrid.add(biq::nn::make_linear(head, std::vector<float>(cfg.hidden, 0.0f),
                                  spec.weight_bits, spec.method,
                                  spec.kernel));
  return hybrid;
}

/// Times one model's planned forward and emits one table row plus one
/// JSON record. `shape_fields` carries the model name and size
/// parameters.
void bench_one(biq::bench::BenchJson& json, biq::TablePrinter& table,
               const char* name, const char* weights,
               const biq::nn::PlannableModule& model, biq::ExecContext& ctx,
               const biq::Matrix& input, std::size_t repeats, unsigned threads,
               std::vector<biq::bench::JsonField> shape_fields) {
  const std::size_t tokens = input.cols();
  biq::Matrix out(model.out_shape({input.rows(), tokens}).rows, tokens);
  const biq::nn::ModelPlan plan(model, tokens, ctx);
  plan.run(input, out);  // warm the arenas before timing
  const double planned =
      biq::bench::bench_seconds([&] { plan.run(input, out); }, repeats);

  table.add_row({name, weights, biq::bench::ms(planned), arena_cell(plan)});

  std::vector<biq::bench::JsonField> rec = std::move(shape_fields);
  rec.push_back(biq::bench::jstr("weights", weights));
  rec.push_back(biq::bench::jnum("planned_ms", planned * 1e3));
  rec.push_back(biq::bench::jint(
      "arena_bytes", static_cast<long long>(plan.arena_bytes())));
  rec.push_back(biq::bench::jint("threads", threads));
  if (threads <= 1) {
    rec.push_back(biq::bench::jstr("caveat", "single-core container"));
  }
  json.record(rec);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t tokens = biq::bench::positional_or(argc, argv, 1, 18);
  const auto layers =
      static_cast<unsigned>(biq::bench::positional_or(argc, argv, 2, 2));
  const std::size_t hidden = biq::bench::positional_or(argc, argv, 3, 256);
  const std::size_t repeats = biq::bench::parse_repeats(argc, argv);
  const unsigned threads = biq::bench::parse_threads(argc, argv);

  biq::bench::BenchJson json(argc, argv, "model_forward");
  biq::bench::print_header(
      "model_forward — whole-model planned forward",
      "prepare/execute split lifted to the model level (Sec. II-A: "
      "everything derivable before activations is computed once)");

  biq::nn::TransformerConfig cfg;
  cfg.hidden = hidden;
  cfg.ffn = 4 * hidden;
  cfg.heads = 8;
  cfg.layers = layers;
  std::printf("encoder: %u layers, hidden %zu, ffn %zu, %zu tokens; "
              "BiLSTM: input %zu, hidden %zu, %zu frames\n\n",
              cfg.layers, cfg.hidden, cfg.ffn, tokens, hidden, hidden / 2,
              tokens);

  // One pool for every context: the contexts run strictly one at a
  // time here, so sharing the (single-master) fork-join pool is safe.
  const std::unique_ptr<biq::ThreadPool> pool =
      threads > 1 ? std::make_unique<biq::ThreadPool>(threads) : nullptr;
  if (threads > 1) std::printf("threads: %u\n\n", threads);

  biq::TablePrinter table(
      {"model", "weights", "planned ms", "arena KB (packed/unpacked)"});
  constexpr std::uint64_t kSeed = 2020;
  biq::Rng rng(7);

  for (const unsigned bits : {0u, 2u}) {
    const char* weights = bits == 0 ? "fp32" : "2-bit biqgemm";
    biq::nn::QuantSpec spec;
    spec.weight_bits = bits;

    {
      biq::ExecContext ctx(pool.get());
      const biq::nn::TransformerEncoder enc =
          biq::nn::make_encoder(cfg, kSeed, spec);
      const biq::Matrix input =
          biq::Matrix::random_normal(hidden, tokens, rng);
      bench_one(json, table, "encoder", weights, enc, ctx, input, repeats, threads,
                {biq::bench::jstr("model", "encoder"),
                 biq::bench::jint("tokens", static_cast<long long>(tokens)),
                 biq::bench::jint("layers", layers),
                 biq::bench::jint("hidden", static_cast<long long>(hidden))});
    }

    {
      const std::size_t lstm_hidden = hidden / 2;
      biq::ExecContext ctx(pool.get());
      const biq::nn::BiLstm model(
          biq::nn::make_lstm_cell(hidden, lstm_hidden, 31, spec),
          biq::nn::make_lstm_cell(hidden, lstm_hidden, 32, spec));
      const biq::Matrix audio =
          biq::Matrix::random_normal(hidden, tokens, rng);
      bench_one(json, table, "bilstm", weights, model, ctx, audio, repeats, threads,
                {biq::bench::jstr("model", "bilstm"),
                 biq::bench::jint("frames", static_cast<long long>(tokens)),
                 biq::bench::jint("hidden",
                                  static_cast<long long>(lstm_hidden))});
    }

    {
      // 4-deep BiLSTM pyramid through the generic walker.
      biq::ExecContext ctx(pool.get());
      const biq::nn::Sequential pyramid = make_pyramid(hidden, spec);
      const biq::Matrix audio =
          biq::Matrix::random_normal(hidden, tokens, rng);
      bench_one(json, table, "bilstm-pyramid-4", weights, pyramid, ctx, audio,
                repeats, threads,
                {biq::bench::jstr("model", "bilstm_pyramid4"),
                 biq::bench::jint("frames", static_cast<long long>(tokens)),
                 biq::bench::jint("hidden", static_cast<long long>(hidden))});
    }

    {
      // Encoder + BiLSTM + head hybrid (Sequential over three blocks).
      biq::ExecContext ctx(pool.get());
      const biq::nn::Sequential hybrid = make_hybrid(cfg, spec);
      const biq::Matrix input =
          biq::Matrix::random_normal(hidden, tokens, rng);
      bench_one(json, table, "encoder+bilstm", weights, hybrid, ctx, input,
                repeats, threads,
                {biq::bench::jstr("model", "encoder_bilstm_hybrid"),
                 biq::bench::jint("tokens", static_cast<long long>(tokens)),
                 biq::bench::jint("layers", layers),
                 biq::bench::jint("hidden", static_cast<long long>(hidden))});
    }
  }

  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("ModelPlan froze every GEMM plan and activation slot at\n"
              "compile time; \"planned ms\" is the warm run's median.\n"
              "Timings are single-core (container) — see the JSON caveat.\n");
  return 0;
}
