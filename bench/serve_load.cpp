// Serving throughput/latency under concurrent load: the same open-loop
// request trace driven through three execution shapes —
//
//   serial     one ExecContext, one ModelPlan per request width, each
//              request runs back-to-back (the no-server baseline),
//   pipelined  InferenceServer with 2 worker contexts and max_wait 0:
//              two buckets in flight overlap, and a worker coalesces
//              only what is already queued when it frees up,
//   batched    InferenceServer with 2 worker contexts and a coalescing
//              deadline: a worker also waits for more requests to
//              concatenate into its power-of-two bucket.
//
// The generator offers load at ~2x the serial capacity (inter-arrival =
// serial median latency / 2), so the serial shape saturates and the
// batched shape must win on throughput; per-request latency is measured
// arrival-to-completion (queueing included) and reported as p50/p99.
// Run with --json to emit BENCH_serve_load.json for the trajectory.
//
//   $ ./serve_load [requests] [hidden] [max_batch] [--json] [--repeats N]
//                  [--threads N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "serve/server.hpp"
#include "threading/thread_pool.hpp"
#include "util/table_printer.hpp"

namespace {

using biq::ExecContext;
using biq::Matrix;
using biq::nn::ModelPlan;
using biq::serve::InferenceServer;
using biq::serve::ServeConfig;
using biq::serve::ServeTicket;
using clock_t_ = std::chrono::steady_clock;

/// Column-independent 2-bit quantized MLP (the serving-compatible model
/// class): Linear -> GELU -> LayerNorm -> Linear, hidden x 4h x hidden.
biq::nn::Sequential make_mlp(std::size_t hidden) {
  const std::size_t ffn = 4 * hidden;
  biq::Rng wrng(2020);
  biq::nn::Sequential mlp;
  mlp.add(biq::nn::make_linear(biq::nn::xavier_uniform(ffn, hidden, wrng),
                               std::vector<float>(ffn, 0.1f), 2,
                               biq::nn::QuantMethod::kGreedy));
  mlp.add(std::make_unique<biq::nn::Activation>(ffn, biq::nn::Act::kGelu));
  mlp.add(std::make_unique<biq::nn::LayerNorm>(ffn));
  mlp.add(biq::nn::make_linear(biq::nn::xavier_uniform(hidden, ffn, wrng),
                               std::vector<float>(hidden, 0.0f), 2,
                               biq::nn::QuantMethod::kGreedy));
  return mlp;
}

/// One measured pass: wall seconds, per-request arrival->completion
/// latencies, and the server's batching counters (zero for serial).
struct RunResult {
  double seconds = 0.0;
  std::vector<double> latencies;
  InferenceServer::Stats stats;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Serial baseline: per-width plans on one context, requests
/// back-to-back. Measures pure service time (no queueing — the serial
/// shape is also the load generator).
RunResult run_serial(const biq::nn::Sequential& mlp,
                     const std::vector<Matrix>& xs, std::vector<Matrix>& ys,
                     ExecContext& ctx) {
  biq::nn::ModelPlanCache<biq::nn::PlannableModule> plans;
  for (const Matrix& x : xs) {  // warm every width's plan off the clock
    Matrix y(ys.front().rows(), x.cols());
    const ModelPlan& p = plans.plan_for(mlp, x.cols(), ctx);
    p.run(x, y);
    p.run(x, y);
  }
  RunResult r;
  r.latencies.reserve(xs.size());
  const auto start = clock_t_::now();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto t0 = clock_t_::now();
    plans.plan_for(mlp, xs[i].cols(), ctx).run(xs[i], ys[i]);
    r.latencies.push_back(
        std::chrono::duration<double>(clock_t_::now() - t0).count());
  }
  r.seconds = std::chrono::duration<double>(clock_t_::now() - start).count();
  return r;
}

/// Open-loop server run: submit request i at start + i * interval (the
/// offered load), measure arrival->completion per ticket.
RunResult run_server(InferenceServer& server, const std::vector<Matrix>& xs,
                     std::vector<Matrix>& ys, double interval_s) {
  const std::size_t n = xs.size();
  std::vector<ServeTicket> tickets(n);
  std::vector<clock_t_::time_point> arrivals(n);
  const InferenceServer::Stats before = server.stats();

  const auto start = clock_t_::now();
  const auto interval = std::chrono::duration_cast<clock_t_::duration>(
      std::chrono::duration<double>(interval_s));
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(start + static_cast<long>(i) * interval);
    arrivals[i] = clock_t_::now();
    server.submit(xs[i], ys[i], tickets[i]);
  }
  auto last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    tickets[i].wait();
    last_done = std::max(last_done, tickets[i].completed_at());
  }

  RunResult r;
  r.seconds = std::chrono::duration<double>(last_done - start).count();
  r.latencies.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    r.latencies.push_back(std::chrono::duration<double>(
                              tickets[i].completed_at() - arrivals[i])
                              .count());
  }
  const InferenceServer::Stats after = server.stats();
  r.stats.requests = after.requests - before.requests;
  r.stats.batches = after.batches - before.batches;
  r.stats.columns = after.columns - before.columns;
  r.stats.padded_columns = after.padded_columns - before.padded_columns;
  return r;
}

/// The median-throughput trial of `trials` runs of `fn`.
template <typename Fn>
RunResult median_trial(Fn&& fn, std::size_t trials) {
  std::vector<RunResult> runs;
  for (std::size_t t = 0; t < trials; ++t) runs.push_back(fn());
  std::sort(runs.begin(), runs.end(), [](const RunResult& a, const RunResult& b) {
    return a.seconds < b.seconds;
  });
  return runs[runs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t requests = biq::bench::positional_or(argc, argv, 1, 256);
  const std::size_t hidden = biq::bench::positional_or(argc, argv, 2, 192);
  const std::size_t max_batch = biq::bench::positional_or(argc, argv, 3, 8);
  const std::size_t repeats = biq::bench::parse_repeats(argc, argv);
  const unsigned threads = biq::bench::parse_threads(argc, argv);
  const std::size_t trials = repeats == 0 ? 3 : repeats;

  biq::bench::BenchJson json(argc, argv, "serve_load");
  biq::bench::print_header(
      "serve_load — serial vs pipelined vs batched serving",
      "build-once-amortize-everywhere at server lifetime (Sec. I: many "
      "small concurrent ASR/MT requests share frozen plans)");

  const biq::nn::Sequential mlp = make_mlp(hidden);

  // The trace: mixed request widths 1..4, fixed across all modes.
  biq::Rng rng(7);
  std::vector<Matrix> xs, ys;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t w = 1 + i % 4;
    xs.push_back(Matrix::random_normal(hidden, w, rng));
    ys.emplace_back(hidden, w);
  }

  const std::unique_ptr<biq::ThreadPool> serial_pool =
      threads > 1 ? std::make_unique<biq::ThreadPool>(threads) : nullptr;
  ExecContext serial_ctx(serial_pool.get());
  const RunResult serial = median_trial(
      [&] { return run_serial(mlp, xs, ys, serial_ctx); }, trials);
  const double serial_lat = percentile(serial.latencies, 0.5);
  // Offer ~2x the serial capacity: the acceptance regime "offered load
  // > 1 request per plan latency" where batching must pay.
  const double interval = serial_lat / 2.0;

  std::printf("requests %zu, hidden %zu, max_batch %zu, threads %u\n",
              requests, hidden, max_batch, threads);
  std::printf("serial median service %s us -> offered load %.0f req/s "
              "(2x serial capacity)\n\n",
              biq::bench::us(serial_lat).c_str(), 1.0 / interval);

  struct Mode {
    const char* name;
    std::chrono::microseconds max_wait;
  };
  const std::vector<Mode> modes = {
      {"pipelined", std::chrono::microseconds(0)},
      {"batched", std::chrono::microseconds(
                      static_cast<long>(std::max(50.0, serial_lat * 2e6)))},
  };

  biq::TablePrinter table({"mode", "throughput req/s", "p50 ms", "p99 ms",
                           "batches", "avg cols/batch", "pad %"});
  const auto add = [&](const char* name, const RunResult& r,
                       double offered_rps) {
    const double rps = static_cast<double>(requests) / r.seconds;
    const double avg_cols =
        r.stats.batches == 0
            ? 0.0
            : static_cast<double>(r.stats.columns) /
                  static_cast<double>(r.stats.batches);
    const double executed = static_cast<double>(r.stats.columns) +
                            static_cast<double>(r.stats.padded_columns);
    const double pad_pct =
        executed == 0.0
            ? 0.0
            : 100.0 * static_cast<double>(r.stats.padded_columns) / executed;
    table.add_row({name, biq::TablePrinter::fmt(rps, 0),
                   biq::bench::ms(percentile(r.latencies, 0.5)),
                   biq::bench::ms(percentile(r.latencies, 0.99)),
                   std::to_string(r.stats.batches),
                   biq::TablePrinter::fmt(avg_cols, 1),
                   biq::TablePrinter::fmt(pad_pct, 1)});
    json.record({biq::bench::jstr("mode", name),
                 biq::bench::jint("requests", static_cast<long long>(requests)),
                 biq::bench::jint("hidden", static_cast<long long>(hidden)),
                 biq::bench::jint("max_batch", static_cast<long long>(max_batch)),
                 biq::bench::jint("threads", threads),
                 biq::bench::jnum("offered_rps", offered_rps),
                 biq::bench::jnum("throughput_rps", rps),
                 biq::bench::jnum("p50_ms", percentile(r.latencies, 0.5) * 1e3),
                 biq::bench::jnum("p99_ms", percentile(r.latencies, 0.99) * 1e3),
                 biq::bench::jint("batches",
                                  static_cast<long long>(r.stats.batches)),
                 biq::bench::jnum("avg_batch_cols", avg_cols),
                 biq::bench::jnum("pad_pct", pad_pct)});
  };

  add("serial", serial, static_cast<double>(requests) / serial.seconds);

  for (const Mode& mode : modes) {
    ServeConfig cfg;
    cfg.max_batch = max_batch;
    cfg.workers = 2;
    cfg.threads_per_worker = threads;
    cfg.max_wait = mode.max_wait;
    InferenceServer server(mlp, cfg);
    const RunResult r = median_trial(
        [&] { return run_server(server, xs, ys, interval); }, trials);
    add(mode.name, r, 1.0 / interval);
  }

  std::printf("%s\n", table.to_markdown().c_str());
  std::printf(
      "serial measures pure back-to-back service time (it IS the\n"
      "capacity the offered load doubles); pipelined overlaps two\n"
      "in-flight buckets on distinct ExecContexts and coalesces what is\n"
      "already queued; batched additionally waits for co-travellers, so\n"
      "each dispatch amortizes one plan traversal over avg cols/batch\n"
      "columns. p50/p99 include queueing delay under the offered load.\n");
  return 0;
}
