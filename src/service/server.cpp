#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

namespace lrdip::service {
namespace {

std::int64_t now_ns() { return CancelToken::steady_now_ns(); }

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  Runtime::Config rc;
  rc.options.c = cfg_.c;
  rc.small_instance_threshold = cfg_.small_instance_threshold;
  runtime_ = std::make_unique<Runtime>(rc);
}

Server::~Server() { stop(); }

bool Server::start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + cfg_.socket_path;
    close_fd(listen_fd_);
    return false;
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(), cfg_.socket_path.size() + 1);
  ::unlink(cfg_.socket_path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    error_ = "bind " + cfg_.socket_path + ": " + std::strerror(errno);
    close_fd(listen_fd_);
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    close_fd(listen_fd_);
    return false;
  }
  // Non-blocking listener: accept() after a positive poll() must not block
  // even if the pending connection vanished in between.
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);
  started_.store(true, std::memory_order_release);
  for (int i = 0; i < cfg_.worker_threads; ++i) spawn_worker();
  watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::spawn_worker() {
  std::lock_guard<std::mutex> lk(workers_mu_);
  auto w = std::make_unique<Worker>();
  Worker* raw = w.get();
  raw->thread = std::thread([this, raw] { worker_loop(raw); });
  workers_.push_back(std::move(w));
}

void Server::accept_loop() {
  for (;;) {
    // close() does not wake a thread already blocked in accept(), so wait in
    // poll() with a timeout and re-check the draining flag between waits;
    // drain() joins this thread before it closes the listener.
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 100);
    if (draining_.load(std::memory_order_acquire)) return;
    if (pr < 0 && errno != EINTR) return;
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
        continue;
      }
      return;
    }
    bool over_cap = false;
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      over_cap = live_conns_ >= cfg_.max_connections;
      if (!over_cap) ++live_conns_;
    }
    if (over_cap || draining_.load(std::memory_order_acquire)) {
      // No frame has been read, so there is no request_id to answer; the
      // closed connection is the backpressure signal. Clients treat connect
      // loss before any reply as retryable.
      if (!over_cap) {
        std::lock_guard<std::mutex> lk(conns_mu_);
        --live_conns_;
      }
      stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      int tmp = fd;
      close_fd(tmp);
      continue;
    }
    stats_.connections_opened.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.push_back(conn);
    }
    // Detached: stop() shuts the fd down and waits for live_conns_ to reach
    // zero, so no thread outlives the Server.
    std::thread([this, conn] { connection_loop(conn); }).detach();
  }
}

void Server::connection_loop(std::shared_ptr<Conn> conn) {
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint64_t oversize = 0;
    const FrameIo io = read_frame(conn->fd, cfg_.max_frame_bytes, &payload, &oversize);
    if (io == FrameIo::eof || io == FrameIo::io_error) break;
    if (io == FrameIo::too_large) {
      // The stream is no longer framed past an oversized declaration, so
      // answer and hang up.
      stats_.too_large.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream os;
      os << "frame of " << oversize << " bytes exceeds limit " << cfg_.max_frame_bytes;
      reply_status(conn, 0, ServiceStatus::too_large, 0, os.str());
      break;
    }
    stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
    Request req;
    if (!decode_request(payload, &req)) {
      stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
      reply_status(conn, 0, ServiceStatus::malformed_frame, 0, "payload did not decode");
      continue;
    }
    switch (req.type) {
      case MsgType::statsz: {
        // Served on the connection thread so observability survives wedged
        // or saturated workers.
        Response resp;
        resp.request_id = req.request_id;
        resp.status = ServiceStatus::ok;
        resp.text = stats_.to_json();
        send_response(conn, resp);
        break;
      }
      case MsgType::sleep_ms:
        if (!cfg_.enable_test_hooks) {
          stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
          reply_status(conn, req.request_id, ServiceStatus::bad_request,
                       0, "sleep_ms requires test hooks");
          break;
        }
        [[fallthrough]];
      case MsgType::verify:
        admit(std::move(req), conn);
        break;
      default:
        stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        reply_status(conn, req.request_id, ServiceStatus::malformed_frame, 0,
                     "unknown message type");
        break;
    }
  }
  {
    // Close under the write lock: a worker mid-reply must never race the
    // close (fd reuse would cross-wire responses between connections).
    std::lock_guard<std::mutex> wl(conn->write_mu);
    conn->open.store(false, std::memory_order_release);
    close_fd(conn->fd);
  }
  std::lock_guard<std::mutex> lk(conns_mu_);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].get() == conn.get()) {
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  --live_conns_;
  conns_cv_.notify_all();
}

bool Server::take_quota_token(std::uint32_t tenant, std::uint32_t* retry_after_ms) {
  if (cfg_.tenant_rate_per_s <= 0) return true;
  std::lock_guard<std::mutex> lk(quota_mu_);
  Bucket& b = buckets_[tenant];
  const std::int64_t now = now_ns();
  if (b.last_ns == 0) b.tokens = cfg_.tenant_burst;
  b.tokens += static_cast<double>(now - b.last_ns) * 1e-9 * cfg_.tenant_rate_per_s;
  if (b.tokens > cfg_.tenant_burst) b.tokens = cfg_.tenant_burst;
  b.last_ns = now;
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return true;
  }
  const double wait_s = (1.0 - b.tokens) / cfg_.tenant_rate_per_s;
  *retry_after_ms = static_cast<std::uint32_t>(std::ceil(wait_s * 1e3));
  return false;
}

bool Server::admit(Request&& req, const std::shared_ptr<Conn>& conn) {
  if (draining_.load(std::memory_order_acquire)) {
    stats_.shed_shutting_down.fetch_add(1, std::memory_order_relaxed);
    reply_status(conn, req.request_id, ServiceStatus::shutting_down);
    return false;
  }
  if (req.type == MsgType::verify) {
    std::uint32_t retry_after = 0;
    if (!take_quota_token(req.tenant, &retry_after)) {
      stats_.shed_quota.fetch_add(1, std::memory_order_relaxed);
      reply_status(conn, req.request_id, ServiceStatus::quota_exceeded, retry_after);
      return false;
    }
  }
  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  pending->conn = conn;
  pending->arrival_ns = now_ns();
  if (pending->req.deadline_ms > 0) {
    pending->cancel.set_deadline_ns(CancelToken::deadline_after_ms(pending->req.deadline_ms));
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (queue_.size() >= cfg_.queue_capacity || stopping_) {
      stats_.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
      // Retry hint scales with how much work one worker batch clears.
      const auto hint = static_cast<std::uint32_t>(
          10 * (1 + queue_.size() / static_cast<std::size_t>(cfg_.batch_max_items)));
      reply_status(conn, pending->req.request_id, ServiceStatus::overloaded, hint);
      return false;
    }
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    stats_.enter_queue();
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::worker_loop(Worker* self) {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      while (!queue_.empty() && batch.size() < static_cast<std::size_t>(cfg_.batch_max_items)) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        stats_.leave_queue();
      }
      ++busy_workers_;
      // Heartbeat set under queue_mu_ so the watchdog's wedge decision and
      // this worker's completion can never double-account busy_workers_.
      self->busy_since_ns.store(now_ns(), std::memory_order_release);
    }
    handle_batch(std::move(batch));
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      self->busy_since_ns.store(0, std::memory_order_release);
      if (!self->wedged.load(std::memory_order_acquire)) {
        --busy_workers_;
        if (queue_.empty() && busy_workers_ == 0) idle_cv_.notify_all();
      }
    }
    // A worker the watchdog gave up on already has a replacement; retire
    // quietly instead of re-entering the pool.
    if (self->wedged.load(std::memory_order_acquire)) return;
  }
}

void Server::handle_batch(std::vector<std::unique_ptr<Pending>> batch) {
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.batched_items.fetch_add(static_cast<std::int64_t>(batch.size()),
                                 std::memory_order_relaxed);

  // Phase 1: per-item admission-to-execution triage. Anything that cannot
  // run answers right here; survivors get a bound instance. Item faults are
  // isolated by construction — the loop classifies, it never unwinds.
  std::vector<Pending*> runnable;
  std::vector<BoundInstance> bound;
  runnable.reserve(batch.size());
  bound.reserve(batch.size());
  for (auto& p : batch) {
    Request& rq = p->req;
    if (p->cancel.expired()) {
      stats_.deadline_misses.fetch_add(1, std::memory_order_relaxed);
      reply_status(p->conn, rq.request_id, ServiceStatus::deadline_exceeded, 0,
                   "deadline passed while queued");
      continue;
    }
    if (rq.type == MsgType::sleep_ms) {
      // Test hook: occupy this worker exactly as a wedged execution would.
      std::this_thread::sleep_for(std::chrono::milliseconds(rq.sleep_ms));
      Response resp;
      resp.request_id = rq.request_id;
      resp.status = ServiceStatus::ok;
      send_response(p->conn, resp);
      continue;
    }
    if (rq.task >= static_cast<std::uint8_t>(kNumTasks)) {
      stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      reply_status(p->conn, rq.request_id, ServiceStatus::bad_request, 0, "unknown task");
      continue;
    }
    if (rq.c != 0 && rq.c != static_cast<std::uint8_t>(cfg_.c)) {
      stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream os;
      os << "this server runs c=" << cfg_.c << " (got c=" << int{rq.c} << ")";
      reply_status(p->conn, rq.request_id, ServiceStatus::bad_request, 0, os.str());
      continue;
    }
    const Task task = static_cast<Task>(rq.task);
    try {
      if (rq.body == BodyKind::inline_graph) {
        std::istringstream is(rq.graph_text);
        GraphReadResult parsed = read_graph_checked(is, cfg_.graph_limits);
        if (!parsed.ok()) {
          stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
          reply_status(p->conn, rq.request_id, ServiceStatus::bad_request, 0, parsed.error);
          continue;
        }
        // bind_instance borrows the GraphFile; keep it alive alongside the
        // bound view for the rest of the batch.
        auto gf = std::make_shared<GraphFile>(std::move(*parsed.file));
        BoundInstance bi = bind_instance(task, *gf);
        bound.push_back(BoundInstance(
            std::shared_ptr<const void>(
                std::make_shared<std::pair<std::shared_ptr<GraphFile>, BoundInstance>>(gf, bi)),
            bi.view()));
      } else {
        if (rq.n == 0) {
          stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
          reply_status(p->conn, rq.request_id, ServiceStatus::bad_request, 0, "n must be >= 1");
          continue;
        }
        if (rq.n > static_cast<std::uint32_t>(cfg_.max_instance_nodes)) {
          stats_.too_large.fetch_add(1, std::memory_order_relaxed);
          std::ostringstream os;
          os << "n=" << rq.n << " exceeds max_instance_nodes=" << cfg_.max_instance_nodes;
          reply_status(p->conn, rq.request_id, ServiceStatus::too_large, 0, os.str());
          continue;
        }
        Rng gen(rq.gen_seed);
        const int n = static_cast<int>(rq.n);
        bound.push_back(rq.body == BodyKind::genspec_yes ? make_yes_instance(task, n, gen)
                                                         : make_near_no_instance(task, n, gen));
      }
    } catch (const std::exception& e) {
      // Generator/binder rejected the request's parameters (too-small n,
      // missing certificate section, ...): a client defect, not ours.
      stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      reply_status(p->conn, rq.request_id, ServiceStatus::bad_request, 0, e.what());
      continue;
    }
    runnable.push_back(p.get());
  }

  if (runnable.empty()) return;

  // Phase 2: one coalesced engine call; per-item deadline tokens ride along.
  std::vector<BatchItem> items;
  items.reserve(runnable.size());
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    items.push_back(BatchItem{bound[i].view(), runnable[i]->req.seed, nullptr,
                              runnable[i]->req.deadline_ms > 0 ? &runnable[i]->cancel : nullptr});
  }
  const std::vector<ItemResult> results = runtime_->run_batch_isolated(items);

  // Phase 3: per-item replies.
  for (std::size_t i = 0; i < results.size(); ++i) {
    Pending* p = runnable[i];
    const ItemResult& r = results[i];
    Response resp;
    resp.request_id = p->req.request_id;
    switch (r.status) {
      case ItemStatus::ok:
        resp.status = ServiceStatus::ok;
        resp.accepted = r.outcome.accepted;
        resp.reject_reason = static_cast<std::uint8_t>(r.outcome.reject_reason);
        resp.rejected_nodes = static_cast<std::uint32_t>(r.outcome.rejected_nodes);
        resp.rounds = static_cast<std::uint32_t>(r.outcome.rounds);
        resp.proof_size_bits = static_cast<std::uint32_t>(r.outcome.proof_size_bits);
        resp.total_label_bits = static_cast<std::uint64_t>(r.outcome.total_label_bits);
        resp.max_coin_bits = static_cast<std::uint32_t>(r.outcome.max_coin_bits);
        resp.outcome_digest = outcome_digest(r.outcome);
        (r.outcome.accepted ? stats_.completed_accept : stats_.completed_reject)
            .fetch_add(1, std::memory_order_relaxed);
        break;
      case ItemStatus::cancelled:
        resp.status = ServiceStatus::deadline_exceeded;
        resp.text = r.error;
        stats_.deadline_misses.fetch_add(1, std::memory_order_relaxed);
        break;
      case ItemStatus::error:
        resp.status = ServiceStatus::internal_error;
        resp.text = r.error;
        stats_.item_errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    stats_.latency.record_ns(now_ns() - p->arrival_ns);
    send_response(p->conn, resp);
  }
}

void Server::send_response(const std::shared_ptr<Conn>& conn, const Response& resp) {
  const std::vector<std::uint8_t> payload = encode_response(resp);
  std::lock_guard<std::mutex> lk(conn->write_mu);
  if (!conn->open.load(std::memory_order_acquire)) return;
  if (write_frame(conn->fd, payload) != FrameIo::ok) {
    // Peer vanished mid-reply; nothing more will be deliverable here.
    conn->open.store(false, std::memory_order_release);
  }
}

void Server::reply_status(const std::shared_ptr<Conn>& conn, std::uint64_t request_id,
                          ServiceStatus status, std::uint32_t retry_after_ms,
                          const std::string& text) {
  Response resp;
  resp.request_id = request_id;
  resp.status = status;
  resp.retry_after_ms = retry_after_ms;
  resp.text = text;
  send_response(conn, resp);
}

void Server::watchdog_loop() {
  const std::int64_t timeout_ns = cfg_.wedge_timeout_ms * 1'000'000;
  while (!draining_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<Worker*> snapshot;
    {
      std::lock_guard<std::mutex> lk(workers_mu_);
      snapshot.reserve(workers_.size());
      for (auto& w : workers_) snapshot.push_back(w.get());
    }
    int newly_wedged = 0;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      const std::int64_t now = now_ns();
      for (Worker* w : snapshot) {
        if (w->wedged.load(std::memory_order_acquire)) continue;
        const std::int64_t busy = w->busy_since_ns.load(std::memory_order_acquire);
        if (busy != 0 && now - busy > timeout_ns) {
          w->wedged.store(true, std::memory_order_release);
          --busy_workers_;  // remove the lost worker from drain accounting
          ++newly_wedged;
        }
      }
    }
    if (newly_wedged > 0) {
      stats_.wedged_workers.fetch_add(newly_wedged, std::memory_order_relaxed);
      for (int i = 0; i < newly_wedged; ++i) spawn_worker();
    }
  }
}

void Server::drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (drained_.exchange(true, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);

  // Stop accepting. The accept loop notices draining_ within one poll
  // timeout; only after it exits is the listener fd safe to close (closing
  // under a concurrent poll() would race with fd reuse).
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  // Finish everything already admitted (bounded by drain_timeout_ms; wedged
  // workers are already out of busy_workers_, so they cannot hold this up).
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    idle_cv_.wait_for(lk, std::chrono::milliseconds(cfg_.drain_timeout_ms),
                      [this] { return queue_.empty() && busy_workers_ == 0; });
    stopping_ = true;
  }
  queue_cv_.notify_all();

  std::vector<std::unique_ptr<Worker>> workers;
  {
    std::lock_guard<std::mutex> lk(workers_mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (!w->thread.joinable()) continue;
    // Still busy after the bounded idle wait above means stuck (the watchdog
    // is down by now, so late wedges land here). A wedged thread may never
    // return; it must not block shutdown. The daemon exits shortly after
    // drain, which reaps it with the process.
    if (w->wedged.load(std::memory_order_acquire) ||
        w->busy_since_ns.load(std::memory_order_acquire) != 0) {
      w->thread.detach();
      // The detached thread still touches the control block, so it must
      // outlive this Server. Park it in a process-lifetime graveyard: a
      // deliberate leak, but one that stays reachable (and therefore quiet
      // under LeakSanitizer).
      static std::mutex graveyard_mu;
      static auto& graveyard = *new std::vector<std::unique_ptr<Worker>>;
      std::lock_guard<std::mutex> glk(graveyard_mu);
      graveyard.push_back(std::move(w));
    } else {
      w->thread.join();
    }
  }
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  drain();
  // Kick connection threads out of their blocking reads, then wait for the
  // last one to deregister. Snapshot first: connection threads take their
  // write lock before conns_mu_ on exit, so shutting down under conns_mu_
  // would invert that order.
  std::vector<std::shared_ptr<Conn>> snapshot;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    snapshot = conns_;
  }
  for (const auto& c : snapshot) {
    std::lock_guard<std::mutex> wl(c->write_mu);
    if (c->open.load(std::memory_order_acquire) && c->fd >= 0) {
      ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  {
    std::unique_lock<std::mutex> lk(conns_mu_);
    conns_cv_.wait_for(lk, std::chrono::seconds(5), [this] { return live_conns_ == 0; });
  }
  ::unlink(cfg_.socket_path.c_str());
}

}  // namespace lrdip::service
