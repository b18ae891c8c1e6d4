#include "dip/parallel.hpp"

#include <algorithm>

#include "dip/cancel.hpp"
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "support/parse.hpp"

namespace lrdip {
namespace {

std::atomic<int> g_forced_threads{0};

int default_threads() {
  if (const char* env = std::getenv("LRDIP_THREADS")) {
    // The whole value must be a number in range; junk and overflow fall back.
    const std::optional<int> v = parse_number<int>(env);
    if (v && *v >= 1 && *v <= 1024) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Each participant claims chunk indices from a shared counter; chunk k is
// [k * grain, ...) for uniform jobs, [bounds[k], bounds[k + 1]) for weighted
// ones. Which thread runs which chunk varies run to run; the determinism
// contract (disjoint writes) makes that unobservable, and the chunk map
// itself never depends on the thread count.
struct Job {
  const detail::RangeBody* body = nullptr;
  // The calling thread's cancellation token, captured at dispatch so pool
  // workers poll the same deadline the caller is bound by. Checked between
  // chunks (a claimed chunk always runs to completion).
  const CancelToken* cancel = nullptr;
  std::int64_t n = 0;
  std::int64_t grain = 1;
  std::int64_t chunks = 0;
  const std::int64_t* bounds = nullptr;  // chunks + 1 entries when weighted
  std::atomic<std::int64_t> next{0};
  // Pool workers that may still join (the thread cap) and pool workers
  // inside run_chunks; both guarded by the pool's mutex.
  int open_slots = 0;
  int joined = 0;
  // Observability (src/obs/metrics.hpp): when metering is on, each
  // participant records its busy time into a claimed slot. Slot 0 is always
  // the calling thread (it claims before dispatch); null when metering is off.
  std::vector<std::int64_t>* busy_ns = nullptr;
  std::atomic<int> busy_slot{0};
  // First-failing-chunk exception (lowest chunk index wins, so even failure
  // is independent of the thread count).
  std::mutex error_mu;
  std::int64_t error_chunk = -1;
  std::exception_ptr error;

  void run_chunks() {
    const bool timed = busy_ns != nullptr;
    const std::int64_t t0 = timed ? obs::now_ns() : 0;
    // Workers adopt the caller's token for the duration of their chunk work
    // so nested inline regions inside the body hit checkpoints too.
    ScopedCancelToken adopt(cancel);
    while (true) {
      const std::int64_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) break;
      if (cancel != nullptr && cancel->expired()) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (error_chunk == -1 || chunk < error_chunk) {
          error_chunk = chunk;
          error = std::make_exception_ptr(CancelledError(
              cancel->cancel_requested() ? "execution cancelled" : "deadline exceeded"));
        }
        break;
      }
      const std::int64_t begin = bounds != nullptr ? bounds[chunk] : chunk * grain;
      const std::int64_t end =
          bounds != nullptr ? bounds[chunk + 1] : (begin + grain < n ? begin + grain : n);
      try {
        (*body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (error_chunk == -1 || chunk < error_chunk) {
          error_chunk = chunk;
          error = std::current_exception();
        }
      }
    }
    if (timed) {
      const int s = busy_slot.fetch_add(1, std::memory_order_relaxed);
      if (s < static_cast<int>(busy_ns->size())) (*busy_ns)[s] = obs::now_ns() - t0;
    }
  }
};

// True while this thread is executing the body of a parallel region — on the
// calling thread for the duration of the region, and on a pool worker while
// it runs chunks. Nested parallel_for calls check it and run inline: the outer
// region already spreads over the pool, and its busy slots already hold the
// inner loop's time.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tl_in_parallel_region) { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = prev; }
};

// A FIFO of jobs with helper slots left. An idle worker joins the front job;
// the caller runs its own chunks regardless (see parallel.hpp), then waits
// only for the workers that actually joined.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Job& job, int helpers) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      while (static_cast<int>(workers_.size()) < helpers) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      job.open_slots = helpers;
      queue_.push_back(&job);
    }
    wake_.notify_all();
    job.run_chunks();  // the caller is a full participant
    std::unique_lock<std::mutex> lk(mu_);
    if (job.open_slots > 0) std::erase(queue_, &job);
    done_.wait(lk, [&] { return job.joined == 0; });
  }

 private:
  Pool() = default;
  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      wake_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      Job* job = queue_.front();
      if (--job->open_slots == 0) queue_.pop_front();
      ++job->joined;
      lk.unlock();
      {
        RegionGuard region;  // nested regions inside the body stay inline
        job->run_chunks();
      }
      lk.lock();
      if (--job->joined == 0) done_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_, done_;
  std::vector<std::thread> workers_;
  std::deque<Job*> queue_;
  bool stop_ = false;
};

}  // namespace

int parallel_threads() {
  const int forced = g_forced_threads.load(std::memory_order_relaxed);
  return forced > 0 ? forced : default_threads();
}

void set_parallel_threads(int threads) {
  g_forced_threads.store(threads > 0 ? threads : 0, std::memory_order_relaxed);
}

namespace {

/// Shared tail of the two entry points: job.n/grain/chunks/bounds are set,
/// chunks >= 2, and the caller wants real parallelism.
void dispatch_job(Job& job, int threads, const detail::RangeBody& body) {
  job.body = &body;
  job.cancel = detail::current_cancel_token();
  const int helpers = static_cast<int>(std::min<std::int64_t>(threads - 1, job.chunks - 1));
  const bool timed = obs::metrics_enabled();
  std::vector<std::int64_t> busy;
  if (timed) {
    busy.assign(static_cast<std::size_t>(helpers) + 1, 0);
    job.busy_ns = &busy;
  }
  const std::int64_t t0 = timed ? obs::now_ns() : 0;
  {
    RegionGuard region;
    Pool::instance().run(job, helpers);
  }
  if (timed) {
    obs::MetricsRegistry::instance().record_parallel(obs::now_ns() - t0, busy, job.n);
  }
  if (job.error) std::rethrow_exception(job.error);
}

/// Inline fallbacks shared by both entry points. Returns true when the loop
/// already ran (nested region, single thread, or a single chunk).
bool ran_inline(std::int64_t n, std::int64_t chunks, int threads, const detail::RangeBody& body) {
  // Every region entry is a cancellation checkpoint, so even fully inline
  // execution (one thread, nested regions) observes deadlines between loops.
  throw_if_cancelled();
  // Nested regions run inline on their worker; their time is already inside
  // the outer region's busy slots, so they are never metered separately.
  if (tl_in_parallel_region) {
    body(0, n);
    return true;
  }
  // Inline when the loop is too small to split or a single thread is
  // requested; metering sees a one-thread region (busy == wall).
  if (threads <= 1 || chunks <= 1) {
    if (!obs::metrics_enabled()) {
      body(0, n);
      return true;
    }
    const std::int64_t t0 = obs::now_ns();
    body(0, n);
    const std::int64_t busy[1] = {obs::now_ns() - t0};
    obs::MetricsRegistry::instance().record_parallel(busy[0], busy, n);
    return true;
  }
  return false;
}

}  // namespace

namespace detail {

void parallel_for_ranges(std::int64_t n, std::int64_t grain, const RangeBody& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int threads = parallel_threads();
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (ran_inline(n, chunks, threads, body)) return;
  Job job;
  job.n = n;
  job.grain = grain;
  job.chunks = chunks;
  dispatch_job(job, threads, body);
}

void parallel_for_chunks(std::int64_t n, std::span<const std::int64_t> bounds,
                         const RangeBody& body) {
  if (n <= 0) return;
  const std::int64_t chunks = static_cast<std::int64_t>(bounds.size()) - 1;
  const int threads = parallel_threads();
  if (ran_inline(n, chunks, threads, body)) return;
  Job job;
  job.n = n;
  job.chunks = chunks;
  job.bounds = bounds.data();
  dispatch_job(job, threads, body);
}

}  // namespace detail
}  // namespace lrdip
