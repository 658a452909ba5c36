// Concurrent serving in ~100 lines: an InferenceServer owns one
// quantized MLP's weights, four submitter threads fire mixed-width
// requests at it, and two workers each coalesce them into power-of-two
// buckets and execute those on their own ExecContext — then
// every result is checked bitwise against a serial same-bucket
// ModelPlan run. Exits non-zero on any divergence, so CI can smoke-run
// it as a correctness gate.
//
//   $ ./serve_demo [requests_per_thread] [hidden] [bits]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "serve/server.hpp"

namespace {

/// Column-independent model class: the serving contract (requests are
/// concatenated along columns, so no module may mix columns).
biq::nn::Sequential build_mlp(std::size_t hidden, unsigned bits) {
  const std::size_t ffn = 2 * hidden;
  biq::Rng wrng(2020);
  biq::nn::Sequential mlp;
  mlp.add(biq::nn::make_linear(biq::nn::xavier_uniform(ffn, hidden, wrng),
                               std::vector<float>(ffn, 0.1f), bits,
                               biq::nn::QuantMethod::kGreedy));
  mlp.add(std::make_unique<biq::nn::Activation>(ffn, biq::nn::Act::kGelu));
  mlp.add(std::make_unique<biq::nn::LayerNorm>(ffn));
  mlp.add(biq::nn::make_linear(biq::nn::xavier_uniform(hidden, ffn, wrng),
                               std::vector<float>(hidden, 0.0f), bits,
                               biq::nn::QuantMethod::kGreedy));
  return mlp;
}

bool bitwise_equal(biq::ConstMatrixView a, biq::ConstMatrixView b) {
  for (std::size_t c = 0; c < a.cols(); ++c) {
    if (std::memcmp(a.col(c), b.col(c), a.rows() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t per_thread =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 32;
  const std::size_t hidden = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 96;
  const unsigned bits =
      argc > 3 ? static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10)) : 2;
  constexpr std::size_t kThreads = 4;

  const biq::nn::Sequential mlp = build_mlp(hidden, bits);

  biq::serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.workers = 2;
  cfg.max_wait = std::chrono::microseconds(200);
  biq::serve::InferenceServer server(mlp, cfg);
  std::printf("serve_demo: %zu threads x %zu requests, hidden %zu, "
              "%u-bit weights, max_batch %zu, 2 worker contexts\n",
              kThreads, per_thread, hidden, bits, server.max_batch());

  // Fixed request trace per thread, generated up front; each request
  // keeps its ticket so the verification below can ask served_bucket().
  biq::Rng rng(7);
  std::vector<std::vector<biq::Matrix>> xs(kThreads), ys(kThreads);
  std::vector<std::vector<biq::serve::ServeTicket>> tickets(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    tickets[t] = std::vector<biq::serve::ServeTicket>(per_thread);
    for (std::size_t i = 0; i < per_thread; ++i) {
      const std::size_t w = 1 + rng.next_below(4);
      xs[t].push_back(biq::Matrix::random_normal(hidden, w, rng));
      ys[t].emplace_back(hidden, w);
    }
  }

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        server.submit(xs[t][i], ys[t][i], tickets[t][i]);
      }
      for (std::size_t i = 0; i < per_thread; ++i) tickets[t][i].wait();
    });
  }
  for (std::thread& t : submitters) t.join();

  const biq::serve::InferenceServer::Stats stats = server.stats();
  std::printf("completed %llu requests in %llu batches "
              "(%.1f columns/batch, %.1f%% pad overhead)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              static_cast<double>(stats.columns) /
                  static_cast<double>(stats.batches),
              100.0 * static_cast<double>(stats.padded_columns) /
                  static_cast<double>(stats.columns + stats.padded_columns));

  // Verify every output bitwise against a serial plan run at the
  // bucket width the request actually executed at (its ticket recorded
  // it): a served result is a pure function of (input columns, bucket
  // width) — neither the co-batched requests, the pad values, the
  // column offset, nor the worker context changes a bit. fp32 and
  // quantized alike.
  std::atomic<std::size_t> bad{0};
  biq::ExecContext ref_ctx;
  biq::nn::ModelPlanCache<biq::nn::PlannableModule> ref_plans;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < per_thread; ++i) {
      const std::size_t w = xs[t][i].cols();
      const std::size_t bucket = tickets[t][i].served_bucket();
      biq::Matrix xref(hidden, bucket);  // zero-padded
      biq::nn::copy_into(xs[t][i].view(), xref.col_block(0, w));
      biq::Matrix yref(hidden, bucket);
      ref_plans.run(mlp, xref, yref, ref_ctx);
      if (!bitwise_equal(ys[t][i].view(), yref.col_block(0, w))) {
        std::fprintf(stderr, "MISMATCH: thread %zu request %zu (width %zu, "
                     "bucket %zu)\n", t, i, w, bucket);
        ++bad;
      }
    }
  }

  if (bad.load() != 0) {
    std::fprintf(stderr, "serve_demo FAILED: %zu divergent requests\n",
                 bad.load());
    return 1;
  }
  std::printf("all %llu served results bitwise-match serial same-bucket "
              "plan runs\n",
              static_cast<unsigned long long>(stats.requests));
  return 0;
}
