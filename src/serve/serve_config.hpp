// Configuration for the concurrent inference server (src/serve/) — the
// serving layer the paper's motivating ASR/translation workloads need:
// many small concurrent requests whose LUT-build/plan cost must be
// amortized across them (Sec. I-II). All knobs are frozen at server
// construction; nothing here changes on the request path.
#pragma once

#include <chrono>
#include <cstddef>

namespace biq::serve {

/// Smallest power-of-two >= cols (cols >= 1) — the batch bucket a
/// request batch is padded to. Buckets quantize the set of batch widths
/// a plan can be asked for, so every bucket's ModelPlan is compiled and
/// warmed BEFORE traffic and the request path never replans.
[[nodiscard]] constexpr std::size_t bucket_for(std::size_t cols) noexcept {
  std::size_t b = 1;
  while (b < cols) b <<= 1;
  return b;
}

/// Number of power-of-two buckets {1, 2, 4, ..., bucket_for(max_batch)}.
[[nodiscard]] constexpr std::size_t bucket_count(std::size_t max_batch) noexcept {
  std::size_t count = 1;
  for (std::size_t b = 1; b < bucket_for(max_batch); b <<= 1) ++count;
  return count;
}

struct ServeConfig {
  /// Largest batch (total request columns) one dispatch may carry; also
  /// the largest bucket every worker compiles. Rounded up to a power of
  /// two by the server. A single request may be at most this wide.
  std::size_t max_batch = 16;

  /// How long a worker holds its open batch waiting for more requests
  /// to coalesce once the first one arrived. 0 dispatches what is
  /// already queued at once (pure pipelining); larger values trade
  /// first-token latency for batching efficiency.
  std::chrono::microseconds max_wait{200};

  /// Worker threads, each with its own ExecContext (= batches in flight
  /// at once). 2 is the planner-aware double-buffering: one bucket
  /// executes while the other worker gathers the next.
  std::size_t workers = 2;

  /// ThreadPool size per worker context; <= 1 runs each worker serial
  /// (its own core is the parallelism). Workers never share pools —
  /// fork-join pools are single-master.
  unsigned threads_per_worker = 1;

  /// Submission queue capacity (requests). A full queue blocks
  /// submitters — bounded memory under overload (backpressure), never
  /// unbounded buffering.
  std::size_t queue_capacity = 1024;
};

}  // namespace biq::serve
