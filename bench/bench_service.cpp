// bench_service: SLO probe for the verification service under saturation.
//
// Boots a real Server in-process and drives it closed-loop from more client
// threads than it has workers, so the admission queue and shed paths are
// continuously exercised — the measurement includes queueing, coalescing,
// and backpressure, not just verification. Reports client-observed p50/p99
// latency plus the server's own counters, and (with --p99-budget-ms) turns
// into a pass/fail gate: exit 1 when the p99 breaches the budget or any
// request ends untyped.
//
//   bench_service [--seconds S] [--clients N] [--workers N] [--n N]
//                 [--deadline-ms N] [--p99-budget-ms N] [--json]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/service_stats.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/parse.hpp"

namespace {

using namespace lrdip;
using namespace lrdip::service;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  double seconds = 5;
  int clients = 6;
  int workers = 2;
  int n = 64;
  std::uint32_t deadline_ms = 5000;
  double p99_budget_ms = 0;
  bool json = false;
};

constexpr const char* kUsage =
    "usage: bench_service [--seconds S] [--clients N] [--workers N] [--n N]"
    " [--deadline-ms N] [--p99-budget-ms N] [--json]\n";

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--json") {
      args.json = true;
    } else if (has_val) {
      // Junk parses to -1, which no range below admits.
      const long long v = parse_number<long long>(argv[++i]).value_or(-1);
      if (a == "--seconds" && v >= 1) {
        args.seconds = static_cast<double>(v);
      } else if (a == "--clients" && v >= 1) {
        args.clients = static_cast<int>(v);
      } else if (a == "--workers" && v >= 1) {
        args.workers = static_cast<int>(v);
      } else if (a == "--n" && v >= 8) {
        args.n = static_cast<int>(v);
      } else if (a == "--deadline-ms" && v >= 0) {
        args.deadline_ms = static_cast<std::uint32_t>(v);
      } else if (a == "--p99-budget-ms" && v >= 0) {
        args.p99_budget_ms = static_cast<double>(v);
      } else {
        std::fputs(kUsage, stderr);
        return 2;
      }
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
  }

  std::string socket = "/tmp/lrdip_bench_" + std::to_string(::getpid()) + ".sock";
  ServerConfig cfg;
  cfg.socket_path = socket;
  cfg.worker_threads = args.workers;
  Server server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "bench_service: %s\n", server.error().c_str());
    return 1;
  }

  obs::LatencyHistogram latency;
  std::atomic<long long> sent{0};
  std::atomic<long long> ok{0};
  std::atomic<long long> typed_errors{0};
  std::atomic<long long> untyped{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(args.clients));
  for (int t = 0; t < args.clients; ++t) {
    clients.emplace_back([&, t] {
      Client client(ClientConfig{socket});
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        Request req;
        req.type = MsgType::verify;
        req.request_id = static_cast<std::uint64_t>(t) << 32 | ++i;
        req.tenant = static_cast<std::uint32_t>(t);
        req.task = static_cast<std::uint8_t>((i + static_cast<std::uint64_t>(t)) %
                                             static_cast<std::uint64_t>(kNumTasks));
        req.body = i % 4 == 0 ? BodyKind::genspec_near_no : BodyKind::genspec_yes;
        req.n = static_cast<std::uint32_t>(args.n);
        req.gen_seed = 1 + i * 7 + static_cast<std::uint64_t>(t);
        req.seed = 1 + i * 13 + static_cast<std::uint64_t>(t);
        req.deadline_ms = args.deadline_ms;
        const std::int64_t t0 = now_ns();
        Response resp;
        sent.fetch_add(1, std::memory_order_relaxed);
        if (client.call(req, &resp)) {
          latency.record_ns(now_ns() - t0);
          (resp.status == ServiceStatus::ok ? ok : typed_errors)
              .fetch_add(1, std::memory_order_relaxed);
        } else {
          untyped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<std::int64_t>(args.seconds * 1e3)));
  stop.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();
  server.stop();

  const double p50_ms = static_cast<double>(latency.quantile_ns(0.5)) * 1e-6;
  const double p99_ms = static_cast<double>(latency.quantile_ns(0.99)) * 1e-6;
  const long long total = sent.load();
  const double rps = static_cast<double>(total) / args.seconds;
  const bool p99_breach = args.p99_budget_ms > 0 && p99_ms > args.p99_budget_ms;
  const bool failed = p99_breach || untyped.load() != 0;

  if (args.json) {
    std::printf(
        "{\n"
        "  \"sent\": %lld, \"ok\": %lld, \"typed_errors\": %lld, \"untyped\": %lld,\n"
        "  \"throughput_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f,\n"
        "  \"p99_budget_ms\": %.1f, \"slo_pass\": %s,\n"
        "  \"server_stats\": %s\n"
        "}\n",
        total, ok.load(), typed_errors.load(), untyped.load(), rps, p50_ms, p99_ms,
        args.p99_budget_ms, failed ? "false" : "true", server.stats().to_json().c_str());
  } else {
    std::printf("bench_service: %d clients vs %d workers, n=%d, %.0fs\n", args.clients,
                args.workers, args.n, args.seconds);
    std::printf("  %lld requests (%.0f/s): ok=%lld typed_errors=%lld untyped=%lld\n", total, rps,
                ok.load(), typed_errors.load(), untyped.load());
    std::printf("  latency p50=%.2fms p99=%.2fms%s\n", p50_ms, p99_ms,
                p99_breach ? "  [SLO BREACH]" : "");
  }
  return failed ? 1 : 0;
}
