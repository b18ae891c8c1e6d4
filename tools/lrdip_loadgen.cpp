// lrdip_loadgen — open-loop traffic replayer and contract checker for lrdipd.
//
// Generates a deterministic arrival schedule (request i is due at
// start + i/rps) and replays it through a bounded pool of client
// connections. Open-loop means arrivals do not wait for completions: when
// the server falls behind, requests pile into its admission queue and the
// shed/deadline machinery — which is exactly what the tool exists to
// exercise. (A bounded pool makes this an approximation: with every
// connection busy, later arrivals start late rather than concurrently.
// Lateness is the client's, not the server's, so latency is measured from
// actual send, and the pool is sized well above the server's worker count.)
//
// The tool is also the service's contract checker:
//   * every request must end in a typed response (verdict or typed error) —
//     the only tolerated connection losses are the ones chaos mode inflicts
//     on purpose; anything else is a violation and a nonzero exit;
//   * --verify-sample k recomputes every k-th ok genspec answer locally
//     through the same Runtime the one-shot CLI uses and compares outcome
//     digests — the service must be bit-identical to the in-process path;
//   * --chaos folds adversarial traffic into the mix: undecodable payloads,
//     frames lying about their length, torn half-frames followed by
//     disconnects, unknown tasks, and oversized instances. The server must
//     answer each with its typed status (or, for torn frames, just drop the
//     connection) and never crash or wedge;
//   * --p99-budget-ms turns the run into an SLO gate for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "dip/runtime.hpp"
#include "obs/service_stats.hpp"
#include "service/client.hpp"
#include "support/digest.hpp"
#include "support/parse.hpp"

namespace {

using namespace lrdip;
using namespace lrdip::service;

struct Options {
  std::string socket_path;
  double seconds = 10;
  double rps = 50;
  int conns = 4;
  int tenants = 3;
  int n_min = 16;
  int n_max = 96;
  std::uint32_t deadline_ms = 2000;
  int c = 3;
  bool chaos = false;
  long long wedge_every = 0;  // 0 = never send sleep_ms wedge requests
  std::uint32_t wedge_ms = 3000;
  int verify_sample = 8;  // recompute every k-th ok genspec answer; 0 = off
  long long min_requests = 0;
  double p99_budget_ms = 0;  // 0 = no SLO gate
  std::uint64_t seed = 1;
  bool json = false;
};

struct Tally {
  std::atomic<long long> status[kNumServiceStatuses] = {};
  std::atomic<long long> sent{0};
  std::atomic<long long> accepted{0};
  std::atomic<long long> rejected{0};
  std::atomic<long long> transport_failures{0};
  std::atomic<long long> expected_conn_losses{0};
  std::atomic<long long> digest_checks{0};
  std::atomic<long long> digest_mismatches{0};
  std::atomic<long long> late_sends{0};
  obs::LatencyHistogram latency;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t i, std::uint64_t salt) {
  return fnv1a_word(fnv1a_word(fnv1a_word(kFnvOffsetBasis, seed), i), salt);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The deterministic request for schedule slot i (chaos aside).
Request make_request(const Options& opt, long long i) {
  Request req;
  req.type = MsgType::verify;
  req.request_id = static_cast<std::uint64_t>(i) + 1;
  req.tenant = static_cast<std::uint32_t>(mix(opt.seed, static_cast<std::uint64_t>(i), 1) %
                                          static_cast<std::uint64_t>(opt.tenants));
  req.task = static_cast<std::uint8_t>(mix(opt.seed, static_cast<std::uint64_t>(i), 2) %
                                       static_cast<std::uint64_t>(kNumTasks));
  req.body = mix(opt.seed, static_cast<std::uint64_t>(i), 3) % 4 == 0 ? BodyKind::genspec_near_no
                                                                      : BodyKind::genspec_yes;
  req.deadline_ms = opt.deadline_ms;
  req.seed = mix(opt.seed, static_cast<std::uint64_t>(i), 4) | 1;
  req.c = static_cast<std::uint8_t>(opt.c);
  const auto span = static_cast<std::uint64_t>(opt.n_max - opt.n_min + 1);
  req.n = static_cast<std::uint32_t>(opt.n_min) +
          static_cast<std::uint32_t>(mix(opt.seed, static_cast<std::uint64_t>(i), 5) % span);
  req.gen_seed = mix(opt.seed, static_cast<std::uint64_t>(i), 6) | 1;
  return req;
}

/// Which chaos act (if any) schedule slot i performs.
enum class ChaosAct { none, garbage, lying_length, torn_frame, bad_task, huge_n, wedge };

ChaosAct chaos_act(const Options& opt, long long i) {
  if (opt.wedge_every > 0 && i > 0 && i % opt.wedge_every == 0) return ChaosAct::wedge;
  if (!opt.chaos || i == 0) return ChaosAct::none;
  if (i % 97 == 0) return ChaosAct::garbage;
  if (i % 131 == 0) return ChaosAct::lying_length;
  if (i % 61 == 0) return ChaosAct::torn_frame;
  if (i % 149 == 0) return ChaosAct::bad_task;
  if (i % 103 == 0) return ChaosAct::huge_n;
  return ChaosAct::none;
}

/// Locally recompute an ok genspec answer and compare digests.
void verify_digest(const Runtime& rt, const Request& req, const Response& resp, Tally* tally) {
  tally->digest_checks.fetch_add(1, std::memory_order_relaxed);
  try {
    Rng gen(req.gen_seed);
    const Task task = static_cast<Task>(req.task);
    const int n = static_cast<int>(req.n);
    const BoundInstance bi = req.body == BodyKind::genspec_yes
                                 ? make_yes_instance(task, n, gen)
                                 : make_near_no_instance(task, n, gen);
    Rng coins(req.seed);
    const Outcome local = rt.run(bi.view(), coins);
    if (outcome_digest(local) != resp.outcome_digest || local.accepted != resp.accepted) {
      tally->digest_mismatches.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "loadgen: DIGEST MISMATCH id=%" PRIu64 " task=%d n=%u local=%016" PRIx64
                   " remote=%016" PRIx64 "\n",
                   resp.request_id, int{req.task}, req.n, outcome_digest(local),
                   resp.outcome_digest);
    }
  } catch (const std::exception& e) {
    tally->digest_mismatches.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "loadgen: local recompute failed for id=%" PRIu64 ": %s\n",
                 resp.request_id, e.what());
  }
}

void run_one(Client& client, const Runtime& rt, const Options& opt, long long i, Tally* tally) {
  const ChaosAct act = chaos_act(opt, i);
  tally->sent.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t send_ns = now_ns();

  const auto record = [&](const Response& resp) {
    tally->latency.record_ns(now_ns() - send_ns);
    const auto s = static_cast<std::size_t>(resp.status);
    if (s < static_cast<std::size_t>(kNumServiceStatuses)) {
      tally->status[s].fetch_add(1, std::memory_order_relaxed);
    }
    if (resp.status == ServiceStatus::ok) {
      (resp.accepted ? tally->accepted : tally->rejected).fetch_add(1, std::memory_order_relaxed);
    }
  };

  switch (act) {
    case ChaosAct::garbage: {
      // A well-framed payload of junk: the server must answer
      // malformed_frame and keep the connection framed.
      std::vector<std::uint8_t> junk(17 + static_cast<std::size_t>(i % 23));
      for (std::size_t k = 0; k < junk.size(); ++k) {
        junk[k] = static_cast<std::uint8_t>(mix(opt.seed, static_cast<std::uint64_t>(i), k));
      }
      Response resp;
      if (client.send_raw(junk) && client.read_reply(&resp)) {
        record(resp);
      } else {
        tally->transport_failures.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    case ChaosAct::lying_length: {
      // A header declaring far more than the server's frame ceiling, with no
      // payload behind it: typed too_large, then the server hangs up (the
      // stream is unframed past the lie).
      if (client.fd() < 0 && !client.connect()) {
        tally->transport_failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::uint32_t lie = 64u << 20;
      std::uint8_t hdr[4];
      for (int k = 0; k < 4; ++k) hdr[k] = static_cast<std::uint8_t>(lie >> (8 * k));
      Response resp;
      if (::write(client.fd(), hdr, 4) == 4 && client.read_reply(&resp)) {
        record(resp);
      } else {
        tally->transport_failures.fetch_add(1, std::memory_order_relaxed);
      }
      client.close();
      return;
    }
    case ChaosAct::torn_frame: {
      // Half a frame, then vanish. No reply owed; the server must simply
      // drop the connection without crashing.
      if (client.fd() < 0 && !client.connect()) {
        tally->transport_failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::uint8_t torn[14] = {100, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9};
      (void)!::write(client.fd(), torn, sizeof(torn));
      client.close();
      tally->expected_conn_losses.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    case ChaosAct::wedge: {
      // Occupy a server worker (requires --enable-test-hooks server-side).
      Request req;
      req.type = MsgType::sleep_ms;
      req.request_id = static_cast<std::uint64_t>(i) + 1;
      req.sleep_ms = opt.wedge_ms;
      Response resp;
      if (client.call_once(req, &resp)) {
        record(resp);
      } else {
        // A wedged worker may outlive our patience; treat as expected.
        tally->expected_conn_losses.fetch_add(1, std::memory_order_relaxed);
        client.close();
      }
      return;
    }
    case ChaosAct::bad_task:
    case ChaosAct::huge_n:
    case ChaosAct::none: {
      Request req = make_request(opt, i);
      if (act == ChaosAct::bad_task) req.task = 99;
      if (act == ChaosAct::huge_n) req.n = 1u << 30;
      Response resp;
      if (!client.call(req, &resp)) {
        tally->transport_failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      record(resp);
      if (act == ChaosAct::none && resp.status == ServiceStatus::ok && opt.verify_sample > 0 &&
          i % opt.verify_sample == 0) {
        verify_digest(rt, req, resp, tally);
      }
      return;
    }
  }
}

void worker(const Options& opt, const Runtime& rt, std::atomic<long long>* next, long long total,
            std::int64_t start_ns, Tally* tally) {
  Client client(ClientConfig{opt.socket_path});
  const double gap_ns = 1e9 / opt.rps;
  for (;;) {
    const long long i = next->fetch_add(1, std::memory_order_relaxed);
    if (i >= total) break;
    const std::int64_t due = start_ns + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
    const std::int64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    } else if (now - due > 1'000'000) {
      tally->late_sends.fetch_add(1, std::memory_order_relaxed);
    }
    run_one(client, rt, opt, i, tally);
  }
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [options]\n"
      "  --seconds S         run duration (default 10)\n"
      "  --rps R             open-loop arrival rate (default 50)\n"
      "  --conns N           client connection pool (default 4)\n"
      "  --tenants N         distinct tenant ids in the mix (default 3)\n"
      "  --n-min/--n-max N   genspec instance size range (default 16..96)\n"
      "  --deadline-ms N     per-request deadline, 0 = none (default 2000)\n"
      "  --c N               soundness exponent, must match the server (default 3)\n"
      "  --chaos             fold adversarial frames into the mix\n"
      "  --wedge-every N     every N-th request wedges a worker (default off)\n"
      "  --wedge-ms N        wedge sleep duration (default 3000)\n"
      "  --verify-sample K   recompute every K-th ok answer locally, 0 = off (default 8)\n"
      "  --min-requests N    run at least N requests even past --seconds\n"
      "  --p99-budget-ms N   fail (exit 1) when p99 latency exceeds N\n"
      "  --seed S            schedule seed (default 1)\n"
      "  --json              emit the summary as JSON on stdout\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_val = i + 1 < argc;
    const std::optional<long long> num =
        has_val ? lrdip::parse_number<long long>(argv[i + 1]) : std::nullopt;
    const long long v = num.value_or(0);
    if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--socket" && has_val) {
      opt.socket_path = argv[++i];
    } else if (num) {
      ++i;
      if (arg == "--seconds" && v >= 1) {
        opt.seconds = static_cast<double>(v);
      } else if (arg == "--rps" && v >= 1) {
        opt.rps = static_cast<double>(v);
      } else if (arg == "--conns" && v >= 1) {
        opt.conns = static_cast<int>(v);
      } else if (arg == "--tenants" && v >= 1) {
        opt.tenants = static_cast<int>(v);
      } else if (arg == "--n-min" && v >= 4) {
        opt.n_min = static_cast<int>(v);
      } else if (arg == "--n-max" && v >= 4) {
        opt.n_max = static_cast<int>(v);
      } else if (arg == "--deadline-ms" && v >= 0) {
        opt.deadline_ms = static_cast<std::uint32_t>(v);
      } else if (arg == "--c" && v >= 1 && v <= 8) {
        opt.c = static_cast<int>(v);
      } else if (arg == "--wedge-every" && v >= 0) {
        opt.wedge_every = v;
      } else if (arg == "--wedge-ms" && v >= 1) {
        opt.wedge_ms = static_cast<std::uint32_t>(v);
      } else if (arg == "--verify-sample" && v >= 0) {
        opt.verify_sample = static_cast<int>(v);
      } else if (arg == "--min-requests" && v >= 0) {
        opt.min_requests = v;
      } else if (arg == "--p99-budget-ms" && v >= 0) {
        opt.p99_budget_ms = static_cast<double>(v);
      } else if (arg == "--seed" && v >= 1) {
        opt.seed = static_cast<std::uint64_t>(v);
      } else {
        usage(argv[0]);
        return 2;
      }
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.socket_path.empty() || opt.n_max < opt.n_min) {
    usage(argv[0]);
    return 2;
  }

  // The local Runtime mirrors the server's configuration so sampled digest
  // recomputation is an apples-to-apples bit comparison.
  Runtime::Config rc;
  rc.options.c = opt.c;
  const Runtime rt(rc);

  const long long total =
      std::max(opt.min_requests, static_cast<long long>(opt.seconds * opt.rps));
  Tally tally;
  std::atomic<long long> next{0};
  const std::int64_t start_ns = now_ns();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opt.conns));
  for (int t = 0; t < opt.conns; ++t) {
    threads.emplace_back(worker, std::cref(opt), std::cref(rt), &next, total, start_ns, &tally);
  }
  for (auto& th : threads) th.join();
  const double wall_s = static_cast<double>(now_ns() - start_ns) * 1e-9;

  // Pull the server's own view of the run (best-effort; the summary is
  // complete without it).
  std::string server_stats = "null";
  {
    Client c(ClientConfig{opt.socket_path});
    Request req;
    req.type = MsgType::statsz;
    req.request_id = 0xffffffffu;
    Response resp;
    if (c.call_once(req, &resp) && resp.status == ServiceStatus::ok) server_stats = resp.text;
  }

  const auto st = [&](ServiceStatus s) {
    return tally.status[static_cast<std::size_t>(s)].load(std::memory_order_relaxed);
  };
  long long typed = 0;
  for (int s = 0; s < kNumServiceStatuses; ++s) {
    typed += tally.status[static_cast<std::size_t>(s)].load(std::memory_order_relaxed);
  }
  const long long sent = tally.sent.load(std::memory_order_relaxed);
  const long long losses = tally.expected_conn_losses.load(std::memory_order_relaxed);
  const long long transport = tally.transport_failures.load(std::memory_order_relaxed);
  const long long mismatches = tally.digest_mismatches.load(std::memory_order_relaxed);
  const double p50_ms = static_cast<double>(tally.latency.quantile_ns(0.5)) * 1e-6;
  const double p99_ms = static_cast<double>(tally.latency.quantile_ns(0.99)) * 1e-6;

  // Contract: every request ends typed, except the connection losses chaos
  // inflicted on purpose.
  long long violations = transport + mismatches;
  if (typed + losses != sent) violations += sent - typed - losses;
  const bool p99_breach = opt.p99_budget_ms > 0 && p99_ms > opt.p99_budget_ms;

  if (opt.json) {
    std::printf(
        "{\n"
        "  \"sent\": %lld, \"typed\": %lld, \"expected_conn_losses\": %lld,\n"
        "  \"transport_failures\": %lld, \"violations\": %lld,\n"
        "  \"ok_accept\": %lld, \"ok_reject\": %lld,\n"
        "  \"malformed_frame\": %lld, \"bad_request\": %lld, \"too_large\": %lld,\n"
        "  \"quota_exceeded\": %lld, \"overloaded\": %lld, \"deadline_exceeded\": %lld,\n"
        "  \"shutting_down\": %lld, \"internal_error\": %lld,\n"
        "  \"digest_checks\": %lld, \"digest_mismatches\": %lld,\n"
        "  \"late_sends\": %lld, \"wall_s\": %.2f,\n"
        "  \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p99_budget_ms\": %.1f,\n"
        "  \"server_stats\": %s\n"
        "}\n",
        sent, typed, losses, transport, violations,
        tally.accepted.load(std::memory_order_relaxed),
        tally.rejected.load(std::memory_order_relaxed), st(ServiceStatus::malformed_frame),
        st(ServiceStatus::bad_request), st(ServiceStatus::too_large),
        st(ServiceStatus::quota_exceeded), st(ServiceStatus::overloaded),
        st(ServiceStatus::deadline_exceeded), st(ServiceStatus::shutting_down),
        st(ServiceStatus::internal_error), tally.digest_checks.load(std::memory_order_relaxed),
        mismatches, tally.late_sends.load(std::memory_order_relaxed), wall_s, p50_ms, p99_ms,
        opt.p99_budget_ms, server_stats.c_str());
  } else {
    std::printf("loadgen: %lld requests in %.1fs — %lld typed, %lld expected losses, "
                "%lld violations\n",
                sent, wall_s, typed, losses, violations);
    std::printf("  accept=%lld reject=%lld shed(quota=%lld queue=%lld) deadline=%lld "
                "malformed=%lld bad=%lld too_large=%lld internal=%lld\n",
                tally.accepted.load(std::memory_order_relaxed),
                tally.rejected.load(std::memory_order_relaxed), st(ServiceStatus::quota_exceeded),
                st(ServiceStatus::overloaded), st(ServiceStatus::deadline_exceeded),
                st(ServiceStatus::malformed_frame), st(ServiceStatus::bad_request),
                st(ServiceStatus::too_large), st(ServiceStatus::internal_error));
    std::printf("  latency p50=%.2fms p99=%.2fms  digest checks=%lld mismatches=%lld\n", p50_ms,
                p99_ms, tally.digest_checks.load(std::memory_order_relaxed), mismatches);
  }
  if (p99_breach) {
    std::fprintf(stderr, "loadgen: p99 %.2fms breaches budget %.1fms\n", p99_ms,
                 opt.p99_budget_ms);
  }
  return violations == 0 && !p99_breach ? 0 : 1;
}
