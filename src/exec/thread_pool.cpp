#include "exec/thread_pool.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace prs::exec {
namespace {

/// True while the current thread is executing inside a parallel region
/// (worker lane or participating submitter). Nested regions check this to
/// run inline instead of deadlocking on the single job slot.
thread_local bool tl_in_region = false;

/// The thread's lane index: workers set theirs once at thread start;
/// everything else (the submitter included) is lane 0. Nested regions run
/// inline, so the value is stable across arbitrary kernel composition.
thread_local int tl_lane = 0;

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() { threads_ = stats_.threads = default_threads(); }

ThreadPool::~ThreadPool() { stop_workers(); }

bool ThreadPool::in_parallel_region() { return tl_in_region; }

int ThreadPool::current_lane() { return tl_lane; }

int ThreadPool::default_threads() {
  long n = 0;
  if (const char* env = std::getenv("PRS_HOST_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    n = std::strtol(env, &end, 10);
    if (end == nullptr || *end != '\0') n = 0;  // malformed: fall through
  }
  if (n <= 0) n = static_cast<long>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  if (n > kMaxThreads) n = kMaxThreads;
  return static_cast<int>(n);
}

void ThreadPool::configure(int n) {
  PRS_REQUIRE(!tl_in_region,
              "ThreadPool::configure called inside a parallel region");
  PRS_REQUIRE(n >= 0 && n <= kMaxThreads,
              "host thread count out of range [0, 256]");
  const int want = n == 0 ? default_threads() : n;
  // Same size: keep the running workers. Joining and respawning them buys
  // nothing, and a caller that sizes the pool after a parallel region has
  // already started it (a set-up that generates its inputs first) would
  // otherwise spawn every worker twice.
  if (want == threads_) return;
  stop_workers();
  std::lock_guard<std::mutex> lock(mutex_);
  threads_ = want;
  std::lock_guard<std::mutex> slock(stats_mutex_);
  stats_.threads = threads_;
}

void ThreadPool::shutdown() {
  PRS_REQUIRE(!tl_in_region,
              "ThreadPool::shutdown called inside a parallel region");
  stop_workers();
}

void ThreadPool::stop_workers() {
  std::vector<std::thread> joining;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    joining.swap(workers_);
  }
  job_cv_.notify_all();
  for (auto& w : joining) w.join();
  std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = false;
}

void ThreadPool::start_workers_locked() {
  // Lane 0 is the submitting thread; lanes 1..threads-1 get workers.
  lanes_.clear();
  for (int i = 0; i < threads_; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void ThreadPool::worker_loop(int lane) {
  tl_lane = lane;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      // A worker that wakes after the job already drained (or was beaten to
      // every chunk) must not touch the lanes of a later job.
      if (job_ == nullptr) continue;
      ++checked_in_;
    }
    tl_in_region = true;
    const std::uint64_t ran = drain(lane);
    tl_in_region = false;
    if (ran > 0) {
      lanes_[static_cast<std::size_t>(lane)]->executed.store(
          ran, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++checked_out_;
    }
    done_cv_.notify_all();
  }
}

std::uint64_t ThreadPool::drain(int lane) {
  // Own lane first, then the others in round-robin order. Chunk claim
  // order is irrelevant for results: each chunk fills its own output slot
  // and combination order is fixed by the caller.
  const std::size_t n = lanes_.size();
  const auto self = static_cast<std::size_t>(lane);
  std::uint64_t ran = 0;
  std::uint64_t stolen = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (self + k) % n;
    Lane& q = *lanes_[victim];
    for (;;) {
      const std::size_t claimed =
          q.next.fetch_add(1, std::memory_order_relaxed);
      if (claimed >= q.end) break;
      execute_chunk(q.base + claimed);
      ++ran;
      if (victim != self) ++stolen;
    }
  }
  if (stolen > 0) {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    stats_.stolen_chunks += stolen;
  }
  return ran;
}

void ThreadPool::execute_chunk(std::size_t chunk) {
  try {
    job_->run_chunk(chunk);
  } catch (...) {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    if (error_ == nullptr || chunk < error_chunk_) {
      error_ = std::current_exception();
      error_chunk_ = chunk;
    }
  }
  if (done_chunks_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      total_chunks_) {
    // Last chunk anywhere: wake the submitter (lock pairs with its wait).
    std::lock_guard<std::mutex> lock(mutex_);
    done_cv_.notify_all();
  }
}

void ThreadPool::run(detail::ParallelJob& job) {
  const std::size_t n = job.chunks();
  if (n == 0) return;

  // Nested region, or a 1-thread pool: run every chunk inline. Same chunk
  // decomposition, same combination order (owned by the caller) — same
  // bytes as the multi-threaded path.
  if (tl_in_region || threads_ <= 1) {
    const bool nested = tl_in_region;
    tl_in_region = true;
    std::exception_ptr first;
    std::size_t first_chunk = 0;
    for (std::size_t c = 0; c < n; ++c) {
      try {
        job.run_chunk(c);
      } catch (...) {
        if (first == nullptr || c < first_chunk) {
          first = std::current_exception();
          first_chunk = c;
        }
      }
    }
    tl_in_region = nested;
    {
      std::lock_guard<std::mutex> slock(stats_mutex_);
      if (nested) {
        ++stats_.nested_jobs;
      } else {
        ++stats_.jobs;
        ++stats_.lane_engagements;
        ++stats_.lane_slots;
      }
      stats_.chunks += n;
      stats_.caller_chunks += n;
    }
    if (first != nullptr) std::rethrow_exception(first);
    return;
  }

  // Only one top-level region runs at a time; concurrent submitters queue.
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    PRS_CHECK(job_ == nullptr, "ThreadPool::run re-entered");
    if (workers_.empty()) start_workers_locked();

    // Balanced fixed split of [0, n) over the lanes; workers steal the
    // remainder from busy lanes.
    const auto lanes = static_cast<std::size_t>(threads_);
    const std::size_t per = n / lanes;
    const std::size_t rem = n % lanes;
    std::size_t base = 0;
    for (std::size_t w = 0; w < lanes; ++w) {
      Lane& q = *lanes_[w];
      const std::size_t len = per + (w < rem ? 1 : 0);
      q.base = base;
      q.end = len;
      q.next.store(0, std::memory_order_relaxed);
      q.executed.store(0, std::memory_order_relaxed);
      base += len;
    }
    job_ = &job;
    done_chunks_.store(0, std::memory_order_relaxed);
    total_chunks_ = n;
    checked_in_ = 0;
    checked_out_ = 0;
    {
      std::lock_guard<std::mutex> slock(stats_mutex_);
      error_ = nullptr;
    }
    ++generation_;
  }
  job_cv_.notify_all();

  // The submitter participates as lane 0, then waits both for every chunk
  // to finish and for every checked-in worker to leave the lane arrays.
  tl_in_region = true;
  const std::uint64_t ran = drain(0);
  tl_in_region = false;

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return done_chunks_.load(std::memory_order_acquire) == total_chunks_ &&
             checked_in_ == checked_out_;
    });
    job_ = nullptr;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    err = error_;
    error_ = nullptr;
    ++stats_.jobs;
    stats_.lane_slots += static_cast<std::uint64_t>(threads_);
    stats_.chunks += n;
    stats_.caller_chunks += ran;
    if (ran > 0) ++stats_.lane_engagements;
    for (std::size_t w = 1; w < lanes_.size(); ++w) {
      if (lanes_[w]->executed.load(std::memory_order_relaxed) > 0) {
        ++stats_.lane_engagements;
      }
    }
  }
  if (err != nullptr) std::rethrow_exception(err);
}

PoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void ThreadPool::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_ = PoolStats{};
  stats_.threads = threads_;
}

}  // namespace prs::exec
