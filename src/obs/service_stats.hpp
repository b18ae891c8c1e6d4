// Service-level observability for the lrdipd daemon.
//
// The per-run MetricsRegistry (metrics.hpp) answers "what did one protocol
// execution cost"; a long-lived service needs the orthogonal aggregate view:
// how deep is the admission queue, what latency are clients actually seeing,
// how much load was shed and why. ServiceStats is that aggregate — a plain
// struct of relaxed atomics that requests touch lock-free on the hot path,
// plus a log2-bucketed latency histogram whose p50/p99 read-out is the CI
// SLO gate's input. One instance lives inside service::Server; /statsz
// serializes it with to_json (same hand-rolled JSON idiom as obs/emit.cpp).
//
// Quantile caveat: the histogram is power-of-two bucketed, so reported
// quantiles are upper bucket edges — an over-estimate by at most 2x. The SLO
// gate compares those conservative values, never raw samples.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace lrdip::obs {

/// Log2-bucketed nanosecond histogram: bucket i counts samples with
/// value < 2^i microseconds (bucket 0: < 1us, last bucket: everything else).
/// Lock-free recording; quantiles are computed from a racy-but-monotone
/// snapshot, which is fine for monitoring output.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 32;  // 2^31 us ~ 36 min ceiling

  void record_ns(std::int64_t ns);
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Upper edge (in ns) of the bucket containing quantile q in [0, 1];
  /// 0 when empty.
  std::int64_t quantile_ns(double q) const;

  /// {"count":..,"p50_us":..,"p99_us":..,"max_us_bucket":..}
  std::string to_json() const;

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
};

/// Aggregate counters for one service process. Field groups mirror the
/// request life cycle: arrival -> admission -> execution -> reply.
struct ServiceStats {
  // Arrival / framing.
  std::atomic<std::int64_t> connections_opened{0};
  std::atomic<std::int64_t> connections_rejected{0};  // over max_connections
  std::atomic<std::int64_t> frames_received{0};
  std::atomic<std::int64_t> malformed_frames{0};

  // Admission.
  std::atomic<std::int64_t> admitted{0};
  std::atomic<std::int64_t> shed_queue_full{0};
  std::atomic<std::int64_t> shed_quota{0};
  std::atomic<std::int64_t> shed_shutting_down{0};
  std::atomic<std::int64_t> queue_depth{0};
  std::atomic<std::int64_t> queue_depth_high_water{0};

  // Execution.
  std::atomic<std::int64_t> batches{0};
  std::atomic<std::int64_t> batched_items{0};
  std::atomic<std::int64_t> completed_accept{0};
  std::atomic<std::int64_t> completed_reject{0};
  std::atomic<std::int64_t> deadline_misses{0};  // queued or running too long
  std::atomic<std::int64_t> item_errors{0};      // ItemStatus::error
  std::atomic<std::int64_t> bad_requests{0};     // decoded but unusable
  std::atomic<std::int64_t> too_large{0};

  // Degradation ladder.
  std::atomic<std::int64_t> wedged_workers{0};

  // Reply latency, request arrival to response write (admitted requests).
  LatencyHistogram latency;

  /// Bumps queue_depth and maintains the high-water mark.
  void enter_queue();
  void leave_queue();

  /// One JSON object with every counter plus the latency summary.
  std::string to_json() const;
};

}  // namespace lrdip::obs
