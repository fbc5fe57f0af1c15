// Real multicore host execution: a process-wide work-stealing thread pool.
//
// Everything else in this repository runs against the *virtual* clock — the
// simulator models multicore speed while the actual numeric kernels ran on a
// single host thread. This pool closes that gap: it drives the real map /
// accumulate loops of the apps (and the blocked GEMM in linalg) across all
// host cores, exactly as the paper's CPU daemon drives "one pthread per CPU
// core".
//
// Determinism contract (DESIGN.md "Host execution"):
//   * The pool never decides *what* is computed, only *where*. Callers
//     (exec/parallel.hpp) decompose a range into fixed chunks whose
//     boundaries depend on the range and grain only — never on the thread
//     count — and combine chunk results in a fixed order. Workers race for
//     chunk *indices*; every index produces its result into its own slot.
//   * Consequently every parallel_for/parallel_reduce call produces
//     byte-identical results for any thread count, including 1.
//
// Sizing: PRS_HOST_THREADS=<n> (or prs_run --host-threads=<n> /
// ThreadPool::configure) overrides std::thread::hardware_concurrency().
// The pool is lazily started on first use; `threads()` counts the calling
// thread, so n threads means n-1 workers plus the caller participating.
//
// Nested parallelism: a parallel region entered from inside another
// parallel region executes its chunks inline on the current thread (same
// chunk decomposition, same combine order — same bytes), so kernels may be
// composed freely without deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace prs::exec {

/// Cumulative pool counters (monotonic since process start / reset_stats).
/// Exported through prs::obs as the "exec.pool.*" metrics. Chunk/steal
/// attribution depends on OS scheduling, so unlike the virtual-clock
/// metrics these are *not* byte-reproducible across runs.
struct PoolStats {
  std::uint64_t jobs = 0;             ///< parallel regions executed
  std::uint64_t nested_jobs = 0;      ///< regions flattened to inline serial
  std::uint64_t chunks = 0;           ///< chunks executed, all lanes
  std::uint64_t stolen_chunks = 0;    ///< chunks taken from another lane
  std::uint64_t caller_chunks = 0;    ///< chunks run by the submitting thread
  std::uint64_t lane_engagements = 0; ///< sum over jobs of lanes that ran >=1 chunk
  std::uint64_t lane_slots = 0;       ///< sum over jobs of lanes available
  int threads = 1;                    ///< configured concurrency (incl. caller)

  /// Mean fraction of available lanes that did useful work per parallel
  /// region. Slots are accumulated per job, so the ratio stays in [0, 1]
  /// even when the pool is reconfigured between jobs.
  double occupancy() const {
    return lane_slots > 0 ? static_cast<double>(lane_engagements) /
                                static_cast<double>(lane_slots)
                          : 0.0;
  }
};

namespace detail {

/// One parallel region: `run_chunk(i)` must be safe to call concurrently
/// for distinct `i` in [0, chunks). Exceptions are captured per chunk; the
/// one with the lowest chunk index is rethrown to the submitter so failure
/// reporting is deterministic too.
class ParallelJob {
 public:
  explicit ParallelJob(std::size_t chunks) : chunks_(chunks) {}
  virtual ~ParallelJob() = default;
  virtual void run_chunk(std::size_t chunk) = 0;

  std::size_t chunks() const { return chunks_; }

 private:
  std::size_t chunks_;
};

}  // namespace detail

class ThreadPool {
 public:
  /// The process-wide pool (lazily constructed, workers lazily spawned).
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured concurrency including the calling thread (>= 1).
  int threads() const { return threads_; }

  /// Re-sizes the pool to `n` threads total (0 = re-read PRS_HOST_THREADS /
  /// hardware_concurrency). Joins existing workers first, unless the pool
  /// already has `n` threads: then the running workers are kept. Must not
  /// be called from inside a parallel region.
  void configure(int n);

  /// Joins all workers. The next parallel region restarts them lazily.
  void shutdown();

  /// True on a pool worker thread or inside a parallel region (nested
  /// regions run inline).
  static bool in_parallel_region();

  /// The calling thread's lane index: 0 for the submitting thread (and any
  /// thread outside the pool), 1..threads-1 for workers. Stable for the
  /// lifetime of a worker and across nested regions (they run inline).
  static int current_lane();

  /// Resolves the default thread count: PRS_HOST_THREADS if set and valid,
  /// else std::thread::hardware_concurrency(), clamped to [1, kMaxThreads].
  static int default_threads();

  static constexpr int kMaxThreads = 256;

  PoolStats stats() const;
  void reset_stats();

  /// Executes `job` across the pool; returns when every chunk has run.
  /// Rethrows the lowest-chunk-index exception, if any. Called by the
  /// parallel_for / parallel_reduce wrappers, not by end users.
  void run(detail::ParallelJob& job);

 private:
  ThreadPool();

  /// Per-lane chunk queue for the current job: lane w owns indices
  /// [base, base + next_end) and claims them via fetch_add on `next`;
  /// thieves claim from the same end (claim order is irrelevant — results
  /// land in per-chunk slots).
  struct Lane {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
    std::size_t base = 0;
    std::atomic<std::uint64_t> executed{0};
  };

  void start_workers_locked();
  void stop_workers();
  void worker_loop(int lane);
  /// Claims and runs chunks for `lane` until the job is drained; returns
  /// the number of chunks this lane executed.
  std::uint64_t drain(int lane);
  void execute_chunk(std::size_t chunk);

  std::mutex mutex_;                       // guards job hand-off + lifecycle
  std::condition_variable job_cv_;         // workers wait for a new job
  std::condition_variable done_cv_;        // submitter waits for completion
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  detail::ParallelJob* job_ = nullptr;     // current job (nullptr = idle)
  std::uint64_t generation_ = 0;           // bumped per job; wakes workers
  std::atomic<std::size_t> done_chunks_{0};
  std::size_t total_chunks_ = 0;
  std::size_t checked_in_ = 0;   // workers that entered the current job
  std::size_t checked_out_ = 0;  // ... and left the lane arrays again
  std::exception_ptr error_;               // lowest-chunk exception
  std::size_t error_chunk_ = 0;
  bool stopping_ = false;
  int threads_ = 1;
  std::mutex submit_mutex_;  // serializes concurrent top-level submitters

  // Stats (guarded by stats_mutex_ where not atomic).
  mutable std::mutex stats_mutex_;
  PoolStats stats_;
};

}  // namespace prs::exec
