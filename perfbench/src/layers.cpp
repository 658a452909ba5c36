// The traced run: per-layer metrics measured from outside, by timing
// calls into each layer's public functions, with a span recorded around
// every call. The suite is the same whatever --workload names (that only
// names the trace file): it covers the encoder workloads' layers, and
// also the BiLSTM and the served FFN block, which have no end-to-end
// workload and are measured here only.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/exec_context.hpp"
#include "engine/registry.hpp"
#include "models.hpp"
#include "nn/model_plan.hpp"
#include "quant/quantize.hpp"
#include "serve/serve_config.hpp"
#include "threading/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using biq::ExecContext;
using biq::Matrix;
using biq::nn::ModelPlan;

class LayerRun {
 public:
  /// Measurement budgets scale with --seconds up to 20 s; longer runs
  /// lengthen only the end-to-end workloads.
  LayerRun(const Options& opt, Result& res, Tracer& tracer)
      : res_(res),
        tracer_(tracer),
        scale_(std::min(opt.seconds, 20.0) / 20.0) {}

  /// Median seconds of a traced plan run; every output is checked
  /// bitwise against `ref` (a separate serial plan's output).
  double forward(const ModelPlan& plan, const Matrix& x, Matrix& y,
                 const Matrix& ref, const char* span, double seconds) {
    plan.run(x, y);  // warm
    std::vector<double> v;
    const auto end = Clock::now() + budget(seconds);
    while (v.size() < 5 || Clock::now() < end) {
      const auto t0 = Clock::now();
      {
        ScopedSpan s(&tracer_, span, ++request_);
        plan.run(x, y);
      }
      v.push_back(seconds_between(t0, Clock::now()));
      res_.count(bitwise_equal(y, ref));
    }
    return median(v);
  }

  [[nodiscard]] Clock::duration budget(double seconds) const {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds * scale_));
  }
  [[nodiscard]] double scaled(double seconds) const { return seconds * scale_; }

  std::uint64_t next_request() { return ++request_; }

 private:
  Result& res_;
  Tracer& tracer_;
  double scale_;
  std::uint64_t request_ = 0;
};

Matrix serial_ref(const biq::nn::PlannableModule& m, const Matrix& x,
                  std::size_t out_rows) {
  ExecContext ctx;
  const ModelPlan plan(m, x.cols(), ctx);
  Matrix y(out_rows, x.cols());
  plan.run(x, y);
  return y;
}

double ms(double s) { return s * 1e3; }

/// One projection at one width, for the build-vs-query split. `qkv`
/// names three engines that read the same input: one prepare feeds all
/// three, as in the attention step.
struct Proj {
  const char* proj;
  const char* width;
  std::size_t cols;
  std::vector<const biq::GemmEngine*> engines;
};

}  // namespace

Result run_layers(const Options& opt) {
  Result res;
  Tracer tracer;
  LayerRun run(opt, res, tracer);
  const Weights w = make_weights();
  biq::Rng rng(opt.seed * 7919 + 4);

  // quant: weight quantization of the whole encoder (most of its set-up).
  {
    double total = 0.0;
    std::size_t n = 0;
    for (const EncoderLayerWeights& lw : w.encoder) {
      for (const Dense* d :
           {&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.up, &lw.down}) {
        const auto t0 = Clock::now();
        ScopedSpan s(&tracer, "quant.quantize", run.next_request());
        const biq::BinaryCodes codes =
            biq::quantize(d->w, kBits, biq::QuantMethod::kGreedy);
        total += seconds_between(t0, Clock::now());
        ++n;
      }
    }
    res.add("quant.quantize_s", total, "s", n);
  }

  const auto enc_q = build_encoder(w, kBits);
  const auto enc_q1 = build_encoder(w, 1);
  const auto enc_f = build_encoder(w, 0);
  const auto lstm_q = build_bilstm(w, kBits);
  const auto lstm_f = build_bilstm(w, 0);
  const auto ffn_q = build_ffn_block(w, kBits);
  const auto ffn_f = build_ffn_block(w, 0);

  ExecContext ctx1;
  const auto pool2 = std::make_unique<biq::ThreadPool>(2);
  ExecContext ctx2(pool2.get());

  // nn: whole-model forwards at every workload width, quantized and fp32.
  struct Width {
    const char* label;
    const biq::nn::PlannableModule* q;
    const biq::nn::PlannableModule* f;  // nullptr: no fp32 arm
    std::size_t rows_in, rows_out, cols;
    double seconds;
  };
  const Width widths[] = {
      {"t32", enc_q.get(), enc_f.get(), kHidden, kHidden, kShortTokens, 1.0},
      {"t128", enc_q.get(), enc_f.get(), kHidden, kHidden, kLongTokens, 1.5},
      {"f100", lstm_q.get(), lstm_f.get(), kLstmInput, 2 * kLstmHidden, kFrames,
       1.0},
      {"b1", ffn_q.get(), ffn_f.get(), kHidden, kHidden, 1, 0.3},
      {"b2", ffn_q.get(), nullptr, kHidden, kHidden, 2, 0.3},
      {"b4", ffn_q.get(), nullptr, kHidden, kHidden, 4, 0.3},
      {"b8", ffn_q.get(), ffn_f.get(), kHidden, kHidden, 8, 0.3},
      {"t32_1bit", enc_q1.get(), nullptr, kHidden, kHidden, kShortTokens, 1.0},
      {"t128_1bit", enc_q1.get(), nullptr, kHidden, kHidden, kLongTokens, 1.5},
  };
  double fwd_ms[std::size(widths)] = {};
  for (std::size_t i = 0; i < std::size(widths); ++i) {
    const Width& wd = widths[i];
    const Matrix x = Matrix::random_normal(wd.rows_in, wd.cols, rng);
    Matrix y(wd.rows_out, wd.cols);
    const Matrix ref = serial_ref(*wd.q, x, wd.rows_out);
    if (i == 0) res.correct = checker_detects_flipped_bit(ref);
    const ModelPlan pq(*wd.q, wd.cols, ctx1);
    const char* span = tracer.intern(std::string("nn.forward.") + wd.label);
    fwd_ms[i] = ms(run.forward(pq, x, y, ref, span, wd.seconds));
    res.add(std::string("nn.forward_ms.") + wd.label, fwd_ms[i], "ms");
    if (wd.f == nullptr) continue;
    const Matrix fref = serial_ref(*wd.f, x, wd.rows_out);
    const ModelPlan pf(*wd.f, wd.cols, ctx1);
    const char* fspan =
        tracer.intern(std::string("nn.fp32_forward.") + wd.label);
    const double f_ms =
        ms(run.forward(pf, x, y, fref, fspan, wd.seconds * 0.6));
    res.add(std::string("nn.fp32_forward_ms.") + wd.label, f_ms, "ms");
    res.add(std::string("nn.quant_speedup.") + wd.label, f_ms / fwd_ms[i],
            "ratio");
  }

  // nn: the encoder split into per-layer attention and FFN plans. Each
  // part runs on the same fixed input, so no value drifts through the
  // chain. Every repetition runs the whole forward and then the parts,
  // so both see the same host noise; the parts' medians sum to the time
  // attention and FFN take in one forward, and the rest of the whole
  // forward is unattributed.
  for (std::size_t wi = 0; wi < 2; ++wi) {
    const std::size_t cols = widths[wi].cols;
    const char* label = widths[wi].label;
    const Matrix x = Matrix::random_normal(kHidden, cols, rng);
    Matrix y(kHidden, cols);
    const ModelPlan whole(*enc_q, cols, ctx1);
    std::vector<std::unique_ptr<ModelPlan>> parts;
    for (const biq::nn::EncoderLayer& layer : enc_q->layers()) {
      parts.push_back(
          std::make_unique<ModelPlan>(layer.attention(), cols, ctx1));
      parts.push_back(std::make_unique<ModelPlan>(layer.ffn(), cols, ctx1));
    }
    whole.run(x, y);  // warm
    for (const auto& p : parts) p->run(x, y);
    std::vector<double> t_whole;
    std::vector<std::vector<double>> t_parts(parts.size());
    const char* whole_span = tracer.intern(std::string("nn.forward.") + label);
    const char* root = tracer.intern(std::string("nn.decomposed.") + label);
    const auto end = Clock::now() + run.budget(wi == 0 ? 1.5 : 2.0);
    while (t_whole.size() < 5 || Clock::now() < end) {
      auto t0 = Clock::now();
      {
        ScopedSpan s(&tracer, whole_span, run.next_request());
        whole.run(x, y);
      }
      t_whole.push_back(seconds_between(t0, Clock::now()));
      ScopedSpan r(&tracer, root, run.next_request());
      for (std::size_t p = 0; p < parts.size(); ++p) {
        t0 = Clock::now();
        {
          ScopedSpan s(&tracer, p % 2 == 0 ? "nn.attention" : "nn.ffn");
          parts[p]->run(x, y);
        }
        t_parts[p].push_back(seconds_between(t0, Clock::now()));
      }
    }
    double attn = 0.0, ffn = 0.0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      (p % 2 == 0 ? attn : ffn) += ms(median(t_parts[p]));
    }
    const double whole_ms = ms(median(t_whole));
    res.add(std::string("nn.attention_ms.") + label, attn, "ms");
    res.add(std::string("nn.ffn_ms.") + label, ffn, "ms");
    // Unsigned: the parts can sum to a little more than the whole.
    res.add(std::string("nn.unattributed_frac.") + label,
            std::abs(whole_ms - attn - ffn) / whole_ms, "ratio",
            t_whole.size());
  }

  // nn: each direction's LSTM scan alone.
  {
    const Matrix x = Matrix::random_normal(kLstmInput, kFrames, rng);
    Matrix y(kLstmHidden, kFrames);
    const std::pair<const char*, const biq::nn::Lstm*> scans[] = {
        {"fw", &lstm_q->forward_layer()}, {"bw", &lstm_q->backward_layer()}};
    for (const auto& [dir, lstm] : scans) {
      const Matrix ref = serial_ref(*lstm, x, kLstmHidden);
      const ModelPlan p(*lstm, kFrames, ctx1);
      res.add(std::string("nn.lstm_scan_ms.") + dir,
              ms(run.forward(p, x, y, ref, "nn.lstm_scan", 0.5)), "ms");
    }
  }

  // nn: plan compilation of the served block as the server's prewarm
  // does it: 2 workers x 4 buckets, each worker on a fresh context, each
  // plan compiled and run twice on zeros to grow its scratch.
  {
    std::vector<double> v;
    for (int rep = 0; rep < 5; ++rep) {
      ExecContext c0, c1;
      std::vector<std::unique_ptr<ModelPlan>> plans;
      const auto t0 = Clock::now();
      {
        ScopedSpan s(&tracer, "nn.plan_compile", run.next_request());
        for (ExecContext* c : {&c0, &c1}) {
          for (std::size_t b = 1; b <= kMaxBatch; b <<= 1) {
            plans.push_back(std::make_unique<ModelPlan>(*ffn_q, b, *c));
            const Matrix x(kHidden, b);
            Matrix y(kHidden, b);
            plans.back()->run(x, y);
            plans.back()->run(x, y);
          }
        }
      }
      v.push_back(seconds_between(t0, Clock::now()));
    }
    res.add("nn.plan_compile_s", median(v), "s", v.size());
  }

  // engine: the paper's Fig. 8 split through GemmPlan::prepare (LUT
  // build) and run(prep, y) (query), next to the fused run(x, y).
  const biq::nn::EncoderLayer& l0 = enc_q->layers()[0];
  const biq::nn::MultiHeadAttention& a0 = l0.attention();
  const biq::nn::FeedForward& sffn = ffn_of(*ffn_q);
  const biq::nn::LstmCell& cell = lstm_q->forward_layer().cell();
  const std::vector<const biq::GemmEngine*> qkv = {
      &a0.wq().engine(), &a0.wk().engine(), &a0.wv().engine()};
  const Proj projs[] = {
      {"qkv", "t32", kShortTokens, qkv},
      {"qkv", "t128", kLongTokens, qkv},
      {"wo", "t32", kShortTokens, {&a0.wo().engine()}},
      {"wo", "t128", kLongTokens, {&a0.wo().engine()}},
      {"ffn_up", "t32", kShortTokens, {&l0.ffn().up().engine()}},
      {"ffn_up", "t128", kLongTokens, {&l0.ffn().up().engine()}},
      {"ffn_down", "t32", kShortTokens, {&l0.ffn().down().engine()}},
      {"ffn_down", "t128", kLongTokens, {&l0.ffn().down().engine()}},
      {"ffn_up", "b1", 1, {&sffn.up().engine()}},
      {"ffn_up", "b8", 8, {&sffn.up().engine()}},
      {"ffn_down", "b1", 1, {&sffn.down().engine()}},
      {"ffn_down", "b8", 8, {&sffn.down().engine()}},
      {"lstm_wx", "f1", 1, {&cell.wx().engine()}},
      {"lstm_wh", "f1", 1, {&cell.wh().engine()}},
  };
  for (const Proj& p : projs) {
    const std::string base = std::string("engine.") + p.proj;
    std::vector<std::unique_ptr<biq::GemmPlan>> plans;
    std::vector<Matrix> y_run, y_con;
    std::size_t weight_bytes = 0, ops = 0, out_rows = 0;
    for (const biq::GemmEngine* e : p.engines) {
      plans.push_back(e->plan(p.cols, ctx1));
      // The shared prepare must be one every plan accepts.
      if (!(plans.back()->prep_key() == plans.front()->prep_key())) {
        throw std::runtime_error(base + ": plans do not share a prep key");
      }
      const std::size_t m = plans.back()->rows();
      y_run.emplace_back(m, p.cols);
      y_con.emplace_back(m, p.cols);
      weight_bytes += e->weight_bytes();
      ops += 2 * m * plans.back()->cols() * p.cols;
      out_rows += m;
    }
    const biq::GemmPlan& first = *plans.front();
    const std::size_t n = first.cols();
    const Matrix x = Matrix::random_normal(n, p.cols, rng);
    Matrix prep_store(first.prep_floats() == 0 ? 1 : first.prep_floats(), 1);
    biq::PrepHandle prep(prep_store.data(), first.prep_floats());
    std::vector<double> t_prep, t_con, t_run;
    const char* root = tracer.intern(base + "." + p.width);
    const auto end = Clock::now() + run.budget(0.12);
    while (t_run.size() < 20 || Clock::now() < end) {
      ScopedSpan r(&tracer, root, run.next_request());
      auto t0 = Clock::now();
      {
        ScopedSpan s(&tracer, "engine.prepare");
        first.prepare(x, prep);
      }
      t_prep.push_back(seconds_between(t0, Clock::now()));
      t0 = Clock::now();
      {
        ScopedSpan s(&tracer, "engine.consume");
        for (std::size_t i = 0; i < plans.size(); ++i) {
          plans[i]->run(prep, y_con[i]);
        }
      }
      t_con.push_back(seconds_between(t0, Clock::now()));
      t0 = Clock::now();
      {
        ScopedSpan s(&tracer, "engine.run");
        for (std::size_t i = 0; i < plans.size(); ++i) {
          plans[i]->run(x, y_run[i]);
        }
      }
      t_run.push_back(seconds_between(t0, Clock::now()));
      // Prepare-then-consume is contracted to be bitwise the fused run.
      for (std::size_t i = 0; i < plans.size(); ++i) {
        res.count(bitwise_equal(y_con[i], y_run[i]));
      }
    }
    const double run_s = median(t_run);
    res.add(base + ".prepare_us." + p.width, median(t_prep) * 1e6, "us");
    res.add(base + ".consume_us." + p.width, median(t_con) * 1e6, "us");
    res.add(base + ".run_us." + p.width, run_s * 1e6, "us");
    res.add(base + ".gops." + p.width,
            static_cast<double>(ops) / run_s / 1e9, "GOP/s");
    res.add(base + ".mbytes." + p.width,
            static_cast<double>(weight_bytes +
                                sizeof(float) * ((out_rows + n) * p.cols +
                                                 first.prep_floats())) /
                1e6,
            "MB");
  }

  // gemm: other registry engines on the serve and LSTM shapes.
  {
    struct Shape {
      const char* proj;
      const char* width;
      std::size_t cols;
      const Matrix* w;
    };
    const Shape shapes[] = {{"ffn_up", "b1", 1, &w.ffn_up.w},
                            {"ffn_up", "b8", 8, &w.ffn_up.w},
                            {"ffn_down", "b1", 1, &w.ffn_down.w},
                            {"ffn_down", "b8", 8, &w.ffn_down.w},
                            {"lstm_wh", "f1", 1, &w.lstm_fw.wh.w}};
    biq::EngineConfig cfg;
    cfg.weight_bits = kBits;
    for (const char* name : {"tmac-lut", "blocked"}) {
      const char* span = tracer.intern(std::string("gemm.") + name);
      for (const Shape& s : shapes) {
        const auto engine = biq::make_engine(name, *s.w, cfg);
        const auto plan = engine->plan(s.cols, ctx1);
        const Matrix x = Matrix::random_normal(s.w->cols(), s.cols, rng);
        Matrix y(s.w->rows(), s.cols);
        plan->run(x, y);
        std::vector<double> v;
        const auto end = Clock::now() + run.budget(0.1);
        while (v.size() < 20 || Clock::now() < end) {
          const auto t0 = Clock::now();
          {
            ScopedSpan sp(&tracer, span, run.next_request());
            plan->run(x, y);
          }
          v.push_back(seconds_between(t0, Clock::now()));
        }
        res.add(std::string("gemm.") + name + "." + s.proj + "." + s.width +
                    "_us",
                median(v) * 1e6, "us");
      }
    }
  }

  // threading: one empty fork-join, and 2-thread speedup of the encoder
  // at t32 and t128 and of the BiLSTM (fork-join per frame).
  {
    const std::vector<double> v =
        time_reps([&] { pool2->run([](unsigned) {}); }, 2000, run.scaled(0.1));
    res.add("threading.fork_join_us", median(v) * 1e6, "us", v.size());
    const std::size_t idx[] = {0, 1, 2};
    for (std::size_t i : idx) {
      const Width& wd = widths[i];
      const Matrix x = Matrix::random_normal(wd.rows_in, wd.cols, rng);
      Matrix y(wd.rows_out, wd.cols);
      const Matrix ref = serial_ref(*wd.q, x, wd.rows_out);
      const ModelPlan p2(*wd.q, wd.cols, ctx2);
      const char* span =
          tracer.intern(std::string("nn.forward_2t.") + wd.label);
      const double t2 = ms(run.forward(p2, x, y, ref, span, wd.seconds));
      res.add(std::string("threading.speedup_2t.") + wd.label, fwd_ms[i] / t2,
              "ratio");
    }
  }

  // serve: both phases, shorter than in the end-to-end run, with the
  // batching counters and the generator's own timings.
  {
    biq::serve::InferenceServer server(*ffn_q, serve_config());
    const ServePool pool = make_serve_pool(*ffn_q, 64, rng);
    const PhaseResult open = run_open_phase(server, pool, kOpenRateRps,
                                            run.scaled(3.0), rng, &tracer);
    const PhaseResult closed = run_closed_phase(
        server, pool, kClosedInFlight, run.scaled(3.0), rng, &tracer);
    for (const auto& [phase, p] :
         {std::pair<const char*, const PhaseResult*>{"open", &open},
          {"closed", &closed}}) {
      const std::string base = std::string("serve.") + phase;
      const auto& st = p->stats;
      res.add(base + ".cols_per_batch",
              st.batches == 0 ? 0.0
                              : static_cast<double>(st.columns) /
                                    static_cast<double>(st.batches),
              "count", st.batches);
      res.add(base + ".pad_frac",
              st.columns + st.padded_columns == 0
                  ? 0.0
                  : static_cast<double>(st.padded_columns) /
                        static_cast<double>(st.columns + st.padded_columns),
              "ratio", st.batches);
      res.attempted += p->sent;
      res.failed += p->failed;
    }
    res.add("serve.closed.submit_us_p90", quantile(closed.submit_s, 0.9) * 1e6,
            "us", closed.submit_s.size());
    // Queue and batching wait: latency minus the traced serial forward
    // at the bucket the request ran in (computed, not traced inside).
    std::vector<double> wait;
    for (std::size_t i = 0; i < open.latency_s.size(); ++i) {
      wait.push_back(ms(open.latency_s[i]) -
                     fwd_ms[3 + log2_bucket(open.bucket[i])]);
    }
    res.add("serve.open.wait_ms_p50", median(wait), "ms", wait.size());
    res.add("serve.open.gen_lag_ms_p90", ms(quantile(open.gen_lag_s, 0.9)),
            "ms", open.gen_lag_s.size());
  }

  // trace: span cost on the encoder's short forward, traced and
  // untraced calls interleaved pair by pair.
  {
    const Matrix x = Matrix::random_normal(kHidden, kShortTokens, rng);
    Matrix y(kHidden, kShortTokens);
    const ModelPlan p(*enc_q, kShortTokens, ctx1);
    p.run(x, y);
    std::vector<double> traced, plain;
    const auto end = Clock::now() + run.budget(1.0);
    while (traced.size() < 5 || Clock::now() < end) {
      auto t0 = Clock::now();
      p.run(x, y);
      plain.push_back(seconds_between(t0, Clock::now()));
      t0 = Clock::now();
      {
        ScopedSpan s(&tracer, "nn.forward.t32", run.next_request());
        p.run(x, y);
      }
      traced.push_back(seconds_between(t0, Clock::now()));
    }
    // Unsigned: at this size the difference is noise of either sign.
    res.add("trace.overhead_frac",
            std::abs(median(traced) - median(plain)) / median(plain), "ratio",
            traced.size());
  }

  const std::string path = opt.out_dir + "/trace_" + opt.workload + "_" +
                           std::to_string(opt.seed) + ".json";
  if (!tracer.write(path, opt.workload, opt.seed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
              path.c_str());
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const Tracer::Total& t : tracer.totals()) {
    std::printf("%-28s %8zu %12.3f %12.3f\n", t.name.c_str(), t.count,
                ms(t.total_s), ms(t.self_s));
  }
  return res;
}

}  // namespace perfbench
