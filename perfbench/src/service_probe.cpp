#include "service_probe.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "dip/runtime.hpp"
#include "graph/io.hpp"
#include "protocols/registry.hpp"
#include "report.hpp"
#include "service/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = lrdip::service;

constexpr int kConnections = 4;
constexpr int kPoolSize = 64;
/// Open-loop rates; the middle one is where svc_p50_ms and svc_tail_ms are read.
constexpr double kRates[] = {40.0, 80.0, 160.0};
/// A rate "holds" when its tail latency stays under this limit.
constexpr double kLatencyLimitMs = 250.0;
constexpr double kReceiveTimeoutS = 2.0;
constexpr double kDrainS = 2.0;
constexpr const char* kSocket = "d.sock";

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct PoolEntry {
  svc::Request req;  // request_id filled in per send
  bool expect_yes = true;
  std::uint64_t ref_digest = 0;
};

/// Mixed tasks at n = 2^8..2^12, a quarter near-no (at n = 2^8, see
/// small-batch), mostly inline graph text with some genspec_yes bodies.
/// References come from this thread before any load starts.
std::vector<PoolEntry> make_pool(std::uint64_t seed) {
  const lrdip::Runtime rt;
  std::vector<PoolEntry> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    const auto task = static_cast<lrdip::Task>(i % lrdip::kNumTasks);
    const bool yes = (i / lrdip::kNumTasks) % 4 != 3;
    const int n = yes ? 256 << ((i / lrdip::kNumTasks) % 5) : 256;
    const bool genspec = yes && i % 16 == 5;
    PoolEntry e;
    e.expect_yes = yes;
    e.req.type = svc::MsgType::verify;
    e.req.task = static_cast<std::uint8_t>(task);
    e.req.seed = mix_seed(seed, 1000 + i);
    e.req.gen_seed = mix_seed(seed, 2000 + i);
    e.req.n = static_cast<std::uint32_t>(n);
    lrdip::Rng gen(e.req.gen_seed);
    const lrdip::BoundInstance bi =
        yes ? lrdip::make_yes_instance(task, n, gen) : lrdip::make_near_no_instance(task, n, gen);
    lrdip::Rng coins(e.req.seed);
    lrdip::Outcome out;
    if (genspec) {
      e.req.body = svc::BodyKind::genspec_yes;
      out = rt.run(bi.view(), coins);
    } else {
      // The daemon parses and binds the text, so the reference does too.
      e.req.body = svc::BodyKind::inline_graph;
      std::ostringstream os;
      lrdip::write_graph(os, to_graph_file(bi));
      e.req.graph_text = os.str();
      std::istringstream is(e.req.graph_text);
      const lrdip::GraphFile gf = lrdip::read_graph(is);
      const lrdip::BoundInstance bound = lrdip::bind_instance(task, gf);
      out = rt.run(bound.view(), coins);
    }
    if (out.accepted != yes) {
      throw std::runtime_error(std::string("service reference ") + lrdip::task_name(task) +
                               ": wrong verdict");
    }
    e.ref_digest = svc::outcome_digest(out);
    pool.push_back(std::move(e));
  }
  return pool;
}

int connect_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, kSocket, sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  // A wedged daemon must show as failed requests, not a hung benchmark.
  timeval tv{static_cast<long>(kReceiveTimeoutS), 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

/// One blocking request/reply exchange on a fresh connection (statsz).
std::optional<svc::Response> ask(const svc::Request& req) {
  const int fd = connect_socket();
  if (fd < 0) return std::nullopt;
  std::optional<svc::Response> resp;
  std::vector<std::uint8_t> buf;
  svc::Response r;
  if (svc::write_frame(fd, svc::encode_request(req)) == svc::FrameIo::ok &&
      svc::read_frame(fd, svc::kDefaultMaxFrameBytes, &buf) == svc::FrameIo::ok &&
      svc::decode_response(buf, &r)) {
    resp = r;
  }
  ::close(fd);
  return resp;
}

std::optional<std::string> statsz() {
  svc::Request req;
  req.type = svc::MsgType::statsz;
  req.request_id = 1;
  const auto r = ask(req);
  if (!r || r->status != svc::ServiceStatus::ok) return std::nullopt;
  return r->text;
}

double stat_value(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const auto at = json.find(pat);
  if (at == std::string::npos) return 0.0;
  const std::string rest = json.substr(at + pat.size(), 16);
  if (rest.rfind("true", 0) == 0) return 1.0;
  return std::strtod(rest.c_str(), nullptr);
}

/// The daemon child: SIGTERM, then SIGKILL after a bounded drain; always reaped.
class Daemon {
 public:
  Daemon(const std::string& exe, int threads) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int out = ::open("daemon.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out >= 0) {
        ::dup2(out, 1);
        ::dup2(out, 2);
      }
      ::setenv("LRDIP_THREADS", std::to_string(threads).c_str(), 1);
      ::execl(exe.c_str(), "lrdipd", "--socket", kSocket, static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// Polls statsz until it answers; false when the daemon died or 10 s passed.
  bool wait_ready() {
    const std::int64_t t0 = now_ns();
    while (secs(now_ns() - t0) < 10.0) {
      if (statsz()) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      ::usleep(10'000);
    }
    return false;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const std::int64_t t0 = now_ns();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (secs(now_ns() - t0) > 5.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(10'000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

struct StepResult {
  double rate = 0;
  std::vector<double> latency_ms;  // correct replies, timed from the due time
  std::vector<double> late_ms;     // send time minus due time
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t backlog_at_end = 0;  // outstanding when the send window closed
  std::vector<std::string> errors;

  /// Tail with each failed request counted as a miss beyond any latency.
  bool holds() const {
    std::vector<double> all = latency_ms;
    all.insert(all.end(), static_cast<std::size_t>(failed), 1e18);
    const TailPick t = pick_tail(all);
    return t.value <= kLatencyLimitMs && backlog_at_end <= std::max<double>(4.0, rate / 4);
  }
};

/// One open-loop step: request k is due at start + k / rate.
StepResult run_step(const std::vector<PoolEntry>& pool, double rate, double seconds,
                    std::uint64_t* next_id) {
  StepResult res;
  res.rate = rate;
  std::vector<int> fds(kConnections, -1);
  struct Pending {
    int entry;
    std::int64_t due;
    int conn;
  };
  std::map<std::uint64_t, Pending> outstanding;
  auto fail_req = [&](std::map<std::uint64_t, Pending>::iterator it, const std::string& why) {
    ++res.failed;
    if (res.errors.size() < 8) res.errors.push_back(why);
    return outstanding.erase(it);
  };
  auto drop_conn = [&](int c, const std::string& why) {
    if (fds[c] >= 0) ::close(fds[c]);
    fds[c] = -1;
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      it = it->second.conn == c ? fail_req(it, why) : std::next(it);
    }
  };

  const std::int64_t start = now_ns();
  const std::int64_t send_end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t hard_end = send_end + static_cast<std::int64_t>(kDrainS * 1e9);
  std::int64_t k = 0;
  bool counted_backlog = false;
  std::vector<std::uint8_t> buf;
  for (;;) {
    const std::int64_t now = now_ns();
    const std::int64_t due = start + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / rate);
    if (due < send_end && due <= now) {
      const int c = static_cast<int>(k % kConnections);
      const int entry = static_cast<int>(k % static_cast<std::int64_t>(pool.size()));
      ++k;
      ++res.attempted;
      if (fds[c] < 0) fds[c] = connect_socket();
      svc::Request req = pool[entry].req;
      req.request_id = (*next_id)++;
      res.late_ms.push_back(static_cast<double>(now - due) * 1e-6);
      if (fds[c] < 0) {
        ++res.failed;
        continue;
      }
      outstanding[req.request_id] = {entry, due, c};
      if (svc::write_frame(fds[c], svc::encode_request(req)) != svc::FrameIo::ok) {
        drop_conn(c, "send failed");
      }
      continue;
    }
    if (now >= send_end && !counted_backlog) {
      res.backlog_at_end = static_cast<std::int64_t>(outstanding.size());
      counted_backlog = true;
    }
    if (now >= send_end && outstanding.empty()) break;
    if (now >= hard_end) {
      while (!outstanding.empty()) fail_req(outstanding.begin(), "no reply by the run deadline");
      break;
    }
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      it = secs(now - it->second.due) > kReceiveTimeoutS ? fail_req(it, "receive timeout")
                                                         : std::next(it);
    }

    std::vector<pollfd> pfds;
    for (int c = 0; c < kConnections; ++c) {
      if (fds[c] >= 0) pfds.push_back({fds[c], POLLIN, 0});
    }
    const std::int64_t wait_ns = due < send_end ? std::max<std::int64_t>(0, due - now) : 5'000'000;
    ::poll(pfds.data(), pfds.size(), static_cast<int>(std::min<std::int64_t>(wait_ns / 1'000'000, 5)));
    for (const pollfd& p : pfds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int c = static_cast<int>(std::find(fds.begin(), fds.end(), p.fd) - fds.begin());
      svc::Response resp;
      if (svc::read_frame(p.fd, svc::kDefaultMaxFrameBytes, &buf) != svc::FrameIo::ok ||
          !svc::decode_response(buf, &resp)) {
        drop_conn(c, "connection lost or untyped reply");
        continue;
      }
      const auto it = outstanding.find(resp.request_id);
      if (it == outstanding.end()) continue;  // already counted as timed out
      const PoolEntry& e = pool[it->second.entry];
      if (resp.status != svc::ServiceStatus::ok) {
        fail_req(it, std::string("typed error: ") + svc::service_status_name(resp.status));
      } else if (resp.accepted != e.expect_yes || resp.outcome_digest != e.ref_digest) {
        fail_req(it, "wrong verdict or digest");
      } else {
        res.latency_ms.push_back(static_cast<double>(now_ns() - it->second.due) * 1e-6);
        outstanding.erase(it);
      }
    }
  }
  for (const int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  return res;
}

}  // namespace

int run_service_probe(const ServiceProbeArgs& args) {
  std::filesystem::create_directories(args.work_dir);
  std::filesystem::current_path(args.work_dir);  // keeps the socket path short

  std::vector<double> setup_s;
  std::vector<PoolEntry> pool;
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < args.setup_reps; ++r) {
    daemon.reset();
    const std::int64_t t0 = now_ns();
    pool = make_pool(args.seed);
    daemon = std::make_unique<Daemon>(args.daemon, args.threads);
    if (!daemon->wait_ready()) throw std::runtime_error("lrdipd did not answer statsz");
    setup_s.push_back(secs(now_ns() - t0));
  }

  std::uint64_t next_id = 1;
  std::vector<StepResult> steps;
  for (const double rate : kRates) {
    steps.push_back(run_step(pool, rate, args.seconds / std::size(kRates), &next_id));
  }
  const std::string stats = statsz().value_or("");
  const double rss = peak_rss_mib(std::to_string(daemon->pid()));
  daemon->stop();

  OpTally all;
  std::vector<double> late;
  std::vector<std::string> errors;
  double max_rps = 0;
  for (const StepResult& s : steps) {
    all.attempted += s.attempted;
    all.failed += s.failed;
    late.insert(late.end(), s.late_ms.begin(), s.late_ms.end());
    errors.insert(errors.end(), s.errors.begin(), s.errors.end());
    if (s.holds()) max_rps = s.rate;
  }
  const StepResult& mid = steps[1];
  const TailPick tail = pick_tail(mid.latency_ms);

  MetricSet layers;
  const double batches = stat_value(stats, "batches");
  layers.add("service.coalesce_ratio",
             batches > 0 ? stat_value(stats, "batched_items") / batches : 0.0, "ratio");
  layers.add("service.queue_depth_hw", stat_value(stats, "queue_depth_high_water"), "count");
  layers.add("service.shed",
             stat_value(stats, "shed_queue_full") + stat_value(stats, "shed_quota") +
                 stat_value(stats, "shed_shutting_down"),
             "count");
  layers.add("service.deadline_misses", stat_value(stats, "deadline_misses"), "count");
  layers.add("service.wedged_workers", stat_value(stats, "wedged_workers"), "count");
  layers.add("service.degraded", stat_value(stats, "degraded"), "bool");
  std::sort(late.begin(), late.end());
  layers.add("service.late_p99_ms", percentile_sorted(late, 99.0), "ms");
  std::cout << "{\"layers\": " << layers.json() << "}\n";

  std::cout << "{\"meta\": {\"workload\": \"service\", \"latency_limit_ms\": "
            << num(kLatencyLimitMs) << ", \"tail_percentile\": " << num(tail.percentile)
            << ", \"tail_beyond\": " << tail.beyond << ", \"tail_samples\": " << tail.samples
            << ", \"steps\": [";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    std::cout << (i ? ", " : "") << "{\"rate\": " << num(s.rate) << ", \"attempted\": "
              << s.attempted << ", \"failed\": " << s.failed
              << ", \"p50_ms\": " << num(median(s.latency_ms))
              << ", \"backlog\": " << s.backlog_at_end << ", \"holds\": " << (s.holds() ? "true" : "false")
              << "}";
  }
  std::cout << "], \"failed_ratio\": " << num(all.failed_ratio()) << ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) std::cout << (i ? ", " : "") << num(setup_s[i]);
  std::cout << "], \"failures\": [";
  for (std::size_t i = 0; i < std::min<std::size_t>(errors.size(), 8); ++i) {
    std::cout << (i ? ", " : "") << quoted(errors[i]);
  }
  std::cout << "]" << args.meta << "}}\n";

  MetricSet metrics;
  metrics.add("svc_p50_ms", median(mid.latency_ms), "ms");
  metrics.add("svc_tail_ms", tail.value, "ms");
  metrics.add("svc_max_rps", max_rps, "req/s");
  metrics.add("failed_ratio", all.failed_ratio(), "ratio");
  metrics.add("setup_s", median(setup_s), "s");
  metrics.add("peak_rss_mib", rss, "MiB");
  const bool correct = all.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << all.attempted << ", \"failed\": " << all.failed << ", \"metrics\": "
            << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
