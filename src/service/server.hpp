// lrdipd: the long-lived multi-tenant verification server.
//
// Wraps the batch Runtime behind the frame protocol (protocol.hpp) on a
// unix-domain socket. The design goal is robustness under misbehaving
// clients, not raw throughput: every resource a client can consume is
// bounded up front, and every way a request can go wrong maps to a typed
// ServiceStatus answered on the wire.
//
// Request life cycle:
//   accept -> [connection cap] -> read frame -> [frame ceiling, decode]
//          -> admission: [drain flag] [per-tenant token bucket]
//                        [bounded queue]                 -> typed shed, or
//          -> queue -> worker pops a coalesced batch (deadline-ordered
//             arrivals, up to batch_max_items)
//          -> per item: bind instance (parse/generate; defects answer that
//             item alone) -> Runtime::run_batch_isolated with a per-item
//             CancelToken carrying the request deadline
//          -> reply on the item's own connection; latency recorded.
//
// Degradation ladder (never crash, shed work typed instead):
//   1. queue full / quota empty  -> RETRY_AFTER-style typed shed responses;
//   2. deadline passed in queue  -> deadline_exceeded without running;
//   3. deadline fires mid-run    -> cooperative cancel at the next parallel
//      chunk checkpoint, item answers deadline_exceeded;
//   4. a worker wedges (no heartbeat progress past wedge_timeout_ms) -> the
//      watchdog marks it lost, counts it in /statsz wedged_workers, and
//      spawns a replacement worker;
//   5. SIGTERM -> drain(): stop accepting, finish everything admitted,
//      answer late arrivals shutting_down, then exit cleanly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dip/runtime.hpp"
#include "graph/io.hpp"
#include "obs/service_stats.hpp"
#include "service/protocol.hpp"

namespace lrdip::service {

struct ServerConfig {
  std::string socket_path;
  int worker_threads = 2;
  int max_connections = 64;
  std::size_t queue_capacity = 128;
  /// Most items one worker coalesces into a single run_batch_isolated call.
  int batch_max_items = 8;
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Ceiling on genspec instance sizes (inline graphs go through
  /// graph_limits); larger asks answer too_large.
  int max_instance_nodes = 1 << 18;
  GraphReadLimits graph_limits;
  /// Per-tenant token bucket: sustained requests/second and burst size.
  /// rate <= 0 disables quotas.
  double tenant_rate_per_s = 0;
  double tenant_burst = 32;
  /// Worker heartbeat silence that makes the watchdog declare it wedged.
  std::int64_t wedge_timeout_ms = 2000;
  /// Hard ceiling on drain() (in-flight completion) before force-closing.
  std::int64_t drain_timeout_ms = 30'000;
  /// Honor MsgType::sleep_ms (tests and chaos drills only).
  bool enable_test_hooks = false;
  /// Soundness exponent and batch axis threshold for the embedded Runtime.
  int c = 3;
  int small_instance_threshold = 2048;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts accept/worker/watchdog threads. False (with
  /// the reason in error()) when the socket cannot be bound.
  bool start();

  /// Graceful shutdown: stop accepting, complete every admitted request,
  /// answer new ones shutting_down, join all service threads (wedged workers
  /// are detached, not waited for). Idempotent.
  void drain();

  /// drain(), then best-effort teardown of remaining connections.
  void stop();

  const std::string& error() const { return error_; }
  const obs::ServiceStats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  /// One admitted request waiting for (or in) execution. Heap-allocated and
  /// pointer-stable: the CancelToken is polled by engine threads while the
  /// item moves through the queue.
  struct Pending {
    Request req;
    std::shared_ptr<Conn> conn;
    std::int64_t arrival_ns = 0;
    CancelToken cancel;
  };

  struct Worker {
    std::thread thread;
    /// 0 when idle; otherwise the steady_now_ns() heartbeat of the batch the
    /// worker started. The watchdog compares it against wedge_timeout_ms.
    std::atomic<std::int64_t> busy_since_ns{0};
    std::atomic<bool> wedged{false};
  };

  void accept_loop();
  void connection_loop(std::shared_ptr<Conn> conn);
  void worker_loop(Worker* self);
  void watchdog_loop();
  void spawn_worker();

  /// Admission decision for one decoded verify request; either enqueues and
  /// returns true or sends the typed shed response and returns false.
  bool admit(Request&& req, const std::shared_ptr<Conn>& conn);
  void handle_batch(std::vector<std::unique_ptr<Pending>> batch);
  void send_response(const std::shared_ptr<Conn>& conn, const Response& resp);
  void reply_status(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                    ServiceStatus status, std::uint32_t retry_after_ms = 0,
                    const std::string& text = {});
  /// True when the tenant's bucket has a token; otherwise sets retry hint.
  bool take_quota_token(std::uint32_t tenant, std::uint32_t* retry_after_ms);

  ServerConfig cfg_;
  std::string error_;
  obs::ServiceStats stats_;
  std::unique_ptr<Runtime> runtime_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread watchdog_thread_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // workers: work available or stopping
  std::condition_variable idle_cv_;    // drain: queue empty and workers idle
  std::deque<std::unique_ptr<Pending>> queue_;
  int busy_workers_ = 0;
  bool stopping_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};

  std::mutex workers_mu_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::atomic<int> live_conns_{0};
  std::condition_variable conns_cv_;

  struct Bucket {
    double tokens = 0;
    std::int64_t last_ns = 0;
  };
  std::mutex quota_mu_;
  std::map<std::uint32_t, Bucket> buckets_;
};

}  // namespace lrdip::service
