#include "obs/service_stats.hpp"

#include <sstream>

namespace lrdip::obs {
namespace {

/// Bucket index for a nanosecond sample: floor(log2(us)) + 1, clamped.
int bucket_of_ns(std::int64_t ns) {
  const std::int64_t us = ns / 1000;
  if (us <= 0) return 0;
  int b = 64 - static_cast<int>(__builtin_clzll(static_cast<unsigned long long>(us)));
  return b < LatencyHistogram::kBuckets ? b : LatencyHistogram::kBuckets - 1;
}

}  // namespace

void LatencyHistogram::record_ns(std::int64_t ns) {
  buckets_[static_cast<std::size_t>(bucket_of_ns(ns))].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t LatencyHistogram::quantile_ns(double q) const {
  std::array<std::int64_t, kBuckets> snap;
  std::int64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[static_cast<std::size_t>(i)] = buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    total += snap[static_cast<std::size_t>(i)];
  }
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const std::int64_t target = static_cast<std::int64_t>(q * static_cast<double>(total - 1)) + 1;
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[static_cast<std::size_t>(i)];
    if (seen >= target) {
      // Upper edge of bucket i: 2^i microseconds.
      return (std::int64_t{1} << i) * 1000;
    }
  }
  return (std::int64_t{1} << (kBuckets - 1)) * 1000;
}

std::string LatencyHistogram::to_json() const {
  std::ostringstream os;
  os << "{\"count\": " << count() << ", \"p50_us\": " << quantile_ns(0.5) / 1000
     << ", \"p90_us\": " << quantile_ns(0.9) / 1000
     << ", \"p99_us\": " << quantile_ns(0.99) / 1000 << "}";
  return os.str();
}

void ServiceStats::enter_queue() {
  const std::int64_t d = queue_depth.fetch_add(1, std::memory_order_relaxed) + 1;
  std::int64_t hw = queue_depth_high_water.load(std::memory_order_relaxed);
  while (d > hw &&
         !queue_depth_high_water.compare_exchange_weak(hw, d, std::memory_order_relaxed)) {
  }
}

void ServiceStats::leave_queue() { queue_depth.fetch_sub(1, std::memory_order_relaxed); }

std::string ServiceStats::to_json() const {
  const auto v = [](const std::atomic<std::int64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::ostringstream os;
  os << "{\n"
     << "  \"connections_opened\": " << v(connections_opened) << ",\n"
     << "  \"connections_rejected\": " << v(connections_rejected) << ",\n"
     << "  \"frames_received\": " << v(frames_received) << ",\n"
     << "  \"malformed_frames\": " << v(malformed_frames) << ",\n"
     << "  \"admitted\": " << v(admitted) << ",\n"
     << "  \"shed_queue_full\": " << v(shed_queue_full) << ",\n"
     << "  \"shed_quota\": " << v(shed_quota) << ",\n"
     << "  \"shed_shutting_down\": " << v(shed_shutting_down) << ",\n"
     << "  \"queue_depth\": " << v(queue_depth) << ",\n"
     << "  \"queue_depth_high_water\": " << v(queue_depth_high_water) << ",\n"
     << "  \"batches\": " << v(batches) << ",\n"
     << "  \"batched_items\": " << v(batched_items) << ",\n"
     << "  \"completed_accept\": " << v(completed_accept) << ",\n"
     << "  \"completed_reject\": " << v(completed_reject) << ",\n"
     << "  \"deadline_misses\": " << v(deadline_misses) << ",\n"
     << "  \"item_errors\": " << v(item_errors) << ",\n"
     << "  \"bad_requests\": " << v(bad_requests) << ",\n"
     << "  \"too_large\": " << v(too_large) << ",\n"
     << "  \"wedged_workers\": " << v(wedged_workers) << ",\n"
     << "  \"latency\": " << latency.to_json() << "\n"
     << "}";
  return os.str();
}

}  // namespace lrdip::obs
