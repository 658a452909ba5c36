// The end-to-end encoder workloads, and the serving phases the traced
// layer run reuses. Each workload is seeded, checks every output
// bitwise against a serial reference, and reports the end-to-end
// metrics listed in BENCHMARK.json.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "matrix/matrix.hpp"
#include "nn/module.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// The Transformer-base encoder with `bits`-bit weights in a serial
/// closed loop: encoder_base (2 bits) and encoder_1bit (1 bit).
[[nodiscard]] Result run_encoder(const Options& opt, unsigned bits);
/// The traced run: every per-layer metric, for every workload's layers.
[[nodiscard]] Result run_layers(const Options& opt);

/// k with 2^k == bucket, for a power-of-two bucket width.
[[nodiscard]] std::size_t log2_bucket(std::size_t bucket);

/// Fixed offered rate of the open serving phase, in requests per second:
/// a constant, never calibrated during a run. It is about a tenth of
/// the closed phase's request rate: open-loop batches are small, and a
/// 2-column bucket costs three times a 1-column one, so near half the
/// closed rate the workers saturate.
inline constexpr double kOpenRateRps = 100.0;
/// Requests the closed serving phase keeps in flight.
inline constexpr std::size_t kClosedInFlight = 16;

/// A finite pool of served inputs (1..kMaxRequestCols columns each) with
/// the serial plan's output for each input at every bucket width it can
/// be served in. A served result is a pure function of (input, bucket),
/// so a response is correct iff it equals ref(input, served bucket).
struct ServePool {
  std::vector<biq::Matrix> xs;
  std::vector<std::array<biq::Matrix, 4>> ref;  // by log2(bucket)

  [[nodiscard]] bool check(std::size_t input, std::size_t bucket,
                           biq::ConstMatrixView y) const;
};
[[nodiscard]] ServePool make_serve_pool(const biq::nn::PlannableModule& block,
                                        std::size_t count, biq::Rng& rng);

/// One serving phase's observations.
struct PhaseResult {
  std::size_t sent = 0;
  std::size_t failed = 0;
  std::vector<double> latency_s;  // open: from due time; closed: from submit
  std::vector<std::size_t> bucket;  // served bucket per latency sample
  std::vector<double> gen_lag_s;  // open only: submit time - due time
  std::vector<double> submit_s;   // duration of each submit() call
  biq::serve::InferenceServer::Stats stats;  // delta over the phase
};

/// Open loop: seeded Poisson arrivals at `rate_rps` for `seconds`.
[[nodiscard]] PhaseResult run_open_phase(biq::serve::InferenceServer& server,
                                         const ServePool& pool,
                                         double rate_rps, double seconds,
                                         biq::Rng& rng, Tracer* tracer);
/// Closed loop: one generator keeps `in_flight` requests outstanding.
[[nodiscard]] PhaseResult run_closed_phase(biq::serve::InferenceServer& server,
                                           const ServePool& pool,
                                           std::size_t in_flight,
                                           double seconds, biq::Rng& rng,
                                           Tracer* tracer);

/// The served configuration: 2 serial workers, buckets up to 8.
[[nodiscard]] biq::serve::ServeConfig serve_config();

}  // namespace perfbench
