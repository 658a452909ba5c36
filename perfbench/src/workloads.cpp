#include "workloads.hpp"

#include <cmath>
#include <memory>
#include <thread>

#include "engine/exec_context.hpp"
#include "models.hpp"
#include "nn/model_plan.hpp"
#include "nn/tensor.hpp"
#include "serve/serve_config.hpp"

namespace perfbench {
namespace {

using biq::ExecContext;
using biq::Matrix;
using biq::nn::ModelPlan;
using biq::serve::InferenceServer;
using biq::serve::ServeTicket;

/// Complete set-ups per run; set-up time is their median.
constexpr int kEncoderSetups = 5;

/// Model-arena and scratch bytes a context holds.
std::size_t context_bytes(ExecContext& ctx) {
  std::size_t total = ctx.model_block_bytes();
  for (unsigned w = 0; w < ctx.worker_count(); ++w) {
    total += ctx.scratch(w).capacity_bytes();
  }
  return total;
}

/// Runs `setup` n times (each one builds a fresh, ready-to-serve state,
/// the previous one destroyed off the clock) and returns the set-up
/// times; the last state stays in `keep`.
template <typename State, typename Fn>
std::vector<double> timed_setups(int n, std::unique_ptr<State>& keep,
                                 Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    keep.reset();
    const auto t0 = Clock::now();
    keep = setup();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return times;
}

/// Requests per statistics window of the closed loops: 50 is ten whole
/// groups of five encoder sentences, so every window holds the same
/// short/long mix.
constexpr std::size_t kLoopWindow = 50;

/// Closed-loop runner: one request in flight; `next` returns the
/// index of the next input, `run` executes it, reports its tokens and
/// returns true when the output checks. Latency covers the call only.
struct LoopResult {
  std::vector<double> latency_s;
  std::vector<double> tokens;  // per request; 0 when it failed
};

template <typename Next, typename Run>
LoopResult closed_loop(double seconds, Result& res, Next&& next, Run&& run) {
  LoopResult out;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    const std::size_t i = next();
    std::size_t tokens = 0;
    const auto t0 = Clock::now();
    bool ok = false;
    try {
      ok = run(i, tokens);
    } catch (...) {
      ok = false;
    }
    out.latency_s.push_back(seconds_between(t0, Clock::now()));
    res.count(ok);
    out.tokens.push_back(ok ? static_cast<double>(tokens) : 0.0);
  }
  return out;
}

/// End-to-end metrics of a closed loop: windowed latency percentiles,
/// and tokens per busy second as a windowed median.
void add_loop(Result& res, const std::vector<double>& setups,
              const LoopResult& loop, std::size_t memory_bytes,
              double rel_err) {
  const std::size_t n = loop.latency_s.size();
  res.add("setup_s", median(setups), "s", setups.size());
  res.add("latency_p50_ms",
          windowed_quantile(loop.latency_s, kLoopWindow, 0.5) * 1e3, "ms", n);
  res.add("latency_p90_ms",
          windowed_quantile(loop.latency_s, kLoopWindow, 0.9) * 1e3, "ms", n);
  res.add("tokens_per_s",
          windowed_ratio(loop.tokens, loop.latency_s, kLoopWindow), "1/s", n);
  res.add("memory_mb", static_cast<double>(memory_bytes) / 1e6, "MB");
  res.add("output_rel_err", rel_err, "ratio", kProbeInputs);
  res.add("success_frac",
          res.attempted == 0
              ? 0.0
              : static_cast<double>(res.attempted - res.failed) /
                    static_cast<double>(res.attempted),
          "ratio", res.attempted);
}

std::vector<Matrix> random_inputs(std::size_t rows, std::size_t cols,
                                  std::size_t count, biq::Rng& rng) {
  std::vector<Matrix> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(Matrix::random_normal(rows, cols, rng));
  }
  return out;
}

}  // namespace

std::size_t log2_bucket(std::size_t bucket) {
  std::size_t k = 0;
  while ((std::size_t{1} << k) < bucket) ++k;
  return k;
}

// ----------------------------------------------------------------- encoder

Result run_encoder(const Options& opt, unsigned bits) {
  Result res;
  const Weights w = make_weights();
  biq::Rng rng(opt.seed * 7919 + 1);
  const std::vector<Matrix> xs = random_inputs(kHidden, kShortTokens, 6, rng);
  const std::vector<Matrix> xl = random_inputs(kHidden, kLongTokens, 3, rng);

  struct State {
    ExecContext ctx;  // serial: no pool, no server
    std::unique_ptr<biq::nn::TransformerEncoder> model;
    std::unique_ptr<ModelPlan> p_short, p_long;
  };
  std::unique_ptr<State> s;
  Matrix ys(kHidden, kShortTokens), yl(kHidden, kLongTokens);
  const std::vector<double> setups = timed_setups(kEncoderSetups, s, [&] {
    auto st = std::make_unique<State>();
    st->model = build_encoder(w, bits);
    st->p_short =
        std::make_unique<ModelPlan>(*st->model, kShortTokens, st->ctx);
    st->p_long = std::make_unique<ModelPlan>(*st->model, kLongTokens, st->ctx);
    st->p_short->run(xs[0], ys);
    st->p_long->run(xl[0], yl);
    return st;
  });

  // References: a separate 1-thread plan of the same width on its own
  // context. Accuracy: the fp32 twin from the identical weights.
  std::vector<Matrix> rs, rl;
  {
    ExecContext ref_ctx;
    const ModelPlan rp_short(*s->model, kShortTokens, ref_ctx);
    const ModelPlan rp_long(*s->model, kLongTokens, ref_ctx);
    for (const Matrix& x : xs) {
      rs.emplace_back(kHidden, kShortTokens);
      rp_short.run(x, rs.back());
    }
    for (const Matrix& x : xl) {
      rl.emplace_back(kHidden, kLongTokens);
      rp_long.run(x, rl.back());
    }
  }
  const double rel_err =
      probe_rel_err(*s->model, *build_encoder(w, 0), kShortTokens);
  res.correct = checker_detects_flipped_bit(rs[0]);

  // Four of every five sentences are short; the long one's place in each
  // group of five is seeded.
  std::size_t seq = 0, long_at = rng.next_below(5);
  const LoopResult loop = closed_loop(
      opt.seconds, res,
      [&] {
        if (seq % 5 == 0) long_at = rng.next_below(5);
        const bool is_long = (seq++ % 5) == long_at;
        return is_long ? xs.size() + rng.next_below(xl.size())
                       : rng.next_below(xs.size());
      },
      [&](std::size_t i, std::size_t& tokens) {
        const bool is_long = i >= xs.size();
        const std::size_t k = is_long ? i - xs.size() : i;
        Matrix& y = is_long ? yl : ys;
        (is_long ? s->p_long : s->p_short)->run(is_long ? xl[k] : xs[k], y);
        tokens = y.cols();
        return bitwise_equal(y, is_long ? rl[k] : rs[k]);
      });

  add_loop(res, setups, loop,
           s->model->weight_bytes() + context_bytes(s->ctx), rel_err);
  return res;
}

// ------------------------------------------------- serving (traced run only)

biq::serve::ServeConfig serve_config() {
  biq::serve::ServeConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.workers = 2;
  cfg.threads_per_worker = 1;
  return cfg;
}

bool ServePool::check(std::size_t input, std::size_t bucket,
                      biq::ConstMatrixView y) const {
  const std::size_t k = log2_bucket(bucket);
  if (input >= xs.size() || k >= 4 || (std::size_t{1} << k) != bucket ||
      ref[input][k].size() == 0) {
    return false;
  }
  return bitwise_equal(y, ref[input][k].col_block(0, y.cols()));
}

ServePool make_serve_pool(const biq::nn::PlannableModule& block,
                          std::size_t count, biq::Rng& rng) {
  ServePool pool;
  ExecContext ctx;
  biq::nn::ModelPlanCache<biq::nn::PlannableModule> plans;
  for (std::size_t i = 0; i < count; ++i) {
    // Widths cycle 1..kMaxRequestCols so every seed offers the same mean
    // width; the values and the request order are what the seed varies.
    const std::size_t cols = 1 + i % kMaxRequestCols;
    pool.xs.push_back(Matrix::random_normal(kHidden, cols, rng));
    pool.ref.emplace_back();
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t bucket = std::size_t{1} << k;
      if (bucket < biq::serve::bucket_for(cols)) continue;
      Matrix x(kHidden, bucket);  // zero pad, request at column 0
      biq::nn::copy_into(pool.xs.back(), x.col_block(0, cols));
      pool.ref.back()[k] = Matrix(kHidden, bucket);
      plans.run(block, x, pool.ref.back()[k], ctx);
    }
  }
  return pool;
}

namespace {

/// One request slot of a serving phase: the ticket, the output buffer
/// and what is needed to check and time the response.
struct Slot {
  std::unique_ptr<ServeTicket> ticket = std::make_unique<ServeTicket>();
  Matrix y{kHidden, kMaxRequestCols};
  std::size_t input = 0;
  Clock::time_point t_ref{};  // open: due time; closed: submit time
  bool live = false;
};

void submit(InferenceServer& server, const ServePool& pool, Slot& slot,
            std::size_t input, PhaseResult& out, Tracer* tracer,
            std::uint64_t request) {
  const Matrix& x = pool.xs[input];
  slot.input = input;
  ++out.sent;
  const auto t0 = Clock::now();
  try {
    ScopedSpan span(tracer, "serve.submit", request);
    server.submit(x, slot.y.col_block(0, x.cols()), *slot.ticket);
    slot.live = true;
  } catch (...) {
    ++out.failed;  // refused
  }
  out.submit_s.push_back(seconds_between(t0, Clock::now()));
}

void finish(const ServePool& pool, Slot& slot, PhaseResult& out) {
  if (!slot.live) return;
  slot.live = false;
  bool ok = false;
  try {
    slot.ticket->wait();
    const std::size_t bucket = slot.ticket->served_bucket();
    const std::size_t cols = pool.xs[slot.input].cols();
    ok = pool.check(slot.input, bucket, slot.y.col_block(0, cols));
    out.latency_s.push_back(
        seconds_between(slot.t_ref, slot.ticket->completed_at()));
    out.bucket.push_back(bucket);
  } catch (...) {
    ok = false;
  }
  if (!ok) ++out.failed;
}

InferenceServer::Stats delta(const InferenceServer::Stats& a,
                             const InferenceServer::Stats& b) {
  return {b.requests - a.requests, b.batches - a.batches,
          b.columns - a.columns, b.padded_columns - a.padded_columns};
}

}  // namespace

PhaseResult run_open_phase(InferenceServer& server, const ServePool& pool,
                           double rate_rps, double seconds, biq::Rng& rng,
                           Tracer* tracer) {
  PhaseResult out;
  // Far more slots than the requests outstanding at the offered rate, so
  // reusing the oldest slot never waits in practice.
  std::vector<Slot> ring(2048);
  const InferenceServer::Stats before = server.stats();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto due = start;
  for (std::uint64_t k = 0;; ++k) {
    const double gap = -std::log(1.0 - rng.next_double()) / rate_rps;
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap));
    if (due >= end) break;
    Slot& slot = ring[k % ring.size()];
    finish(pool, slot, out);
    const std::size_t input = rng.next_below(pool.xs.size());
    std::this_thread::sleep_until(due);
    out.gen_lag_s.push_back(seconds_between(due, Clock::now()));
    slot.t_ref = due;
    submit(server, pool, slot, input, out, tracer, k);
  }
  for (Slot& slot : ring) finish(pool, slot, out);
  out.stats = delta(before, server.stats());
  return out;
}

PhaseResult run_closed_phase(InferenceServer& server, const ServePool& pool,
                             std::size_t in_flight, double seconds,
                             biq::Rng& rng, Tracer* tracer) {
  PhaseResult out;
  std::vector<Slot> ring(in_flight);
  const InferenceServer::Stats before = server.stats();
  const auto start = Clock::now();
  std::uint64_t k = 0;
  for (; k < ring.size(); ++k) {
    ring[k].t_ref = Clock::now();
    submit(server, pool, ring[k], rng.next_below(pool.xs.size()), out, tracer,
           k);
  }
  while (seconds_between(start, Clock::now()) < seconds) {
    Slot& slot = ring[k % ring.size()];
    finish(pool, slot, out);
    slot.t_ref = Clock::now();
    submit(server, pool, slot, rng.next_below(pool.xs.size()), out, tracer, k);
    ++k;
  }
  for (Slot& slot : ring) finish(pool, slot, out);
  out.stats = delta(before, server.stats());
  return out;
}

}  // namespace perfbench
