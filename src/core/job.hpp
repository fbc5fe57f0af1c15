// Job-level types of the PRS runtime: input slices, execution/scheduling
// modes, job configuration and result statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace prs::fault {
class FaultInjector;  // defined in fault/injector.hpp (layered below core)
}

namespace prs::core {

class SchedulePolicy;

/// A contiguous range of input items [begin, end). The paper's map-task key
/// object "contains the indices bound of input matrices"; this is that key.
struct InputSlice {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }

  /// Splits off the first `fraction` of the slice (rounded to items).
  /// Returns {head, tail}.
  std::pair<InputSlice, InputSlice> split_at_fraction(double fraction) const {
    PRS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
                "split fraction must be in [0, 1]");
    const auto head_items =
        static_cast<std::size_t>(static_cast<double>(size()) * fraction + 0.5);
    const std::size_t mid = begin + std::min(head_items, size());
    return {InputSlice{begin, mid}, InputSlice{mid, end}};
  }

  /// Chops the slice into at most `n` near-equal blocks (no empty blocks).
  std::vector<InputSlice> blocks(std::size_t n) const;

  /// Chops into blocks of at most `items_per_block` items.
  std::vector<InputSlice> blocks_of(std::size_t items_per_block) const;
};

/// How map/reduce payloads execute (DESIGN.md "Execution modes").
enum class ExecutionMode {
  /// Real kernels on real data; results checked against references.
  kFunctional,
  /// Virtual time charged for the declared workload; functional payloads
  /// skipped. Used by the large paper-scale benches.
  kModeled,
};

/// §III.B.2: the two scheduling strategies of the sub-task scheduler.
enum class SchedulingMode {
  /// Partition split CPU/GPU by the analytic model (Eq (8)), then each
  /// daemon picks its own granularity.
  kStatic,
  /// Partition split into fixed-size blocks polled by idle device daemons.
  kDynamic,
};

/// Which runner executes the job's stages.
enum class ExecEngine {
  /// Stage loop in job_runner.hpp: per-phase barriers, bulk copy-back.
  /// The reference path — byte-identical to the pre-graph runner.
  kStages,
  /// Task-graph runtime (prs::graph): the same stages built as one
  /// dependency graph per job, with per-block D2H copy-back overlapped
  /// against sibling compute and immediate first-failure propagation.
  /// Numeric results are byte-identical to kStages; virtual time differs
  /// only where overlap genuinely shortens the schedule.
  kGraph,
};

/// Tolerance knobs used by the fault-tolerant execution path (engaged only
/// when JobConfig::faults is set; fault-free jobs never read these).
struct FaultToleranceConfig {
  /// Per-task deadline = factor x modeled duration of the attempt.
  double task_timeout_factor = 8.0;
  /// Floor for per-task deadlines (virtual seconds).
  double min_task_timeout = 1e-3;
  /// Total execution attempts per block (first try + retries) before the
  /// node declares itself failed.
  int max_task_attempts = 4;
  /// First retry backoff (virtual seconds); doubles per retry.
  double backoff_base = 250e-6;
  /// A running block is a straggler when its elapsed time exceeds
  /// straggler_factor x median duration of completed blocks.
  double straggler_factor = 2.5;
  /// Completed blocks needed before the median is trusted.
  std::size_t straggler_min_completed = 3;
  /// Speculatively re-execute stragglers on the other device class
  /// (first result wins, losers discarded).
  bool speculation = true;
  /// Straggler watchdog period (virtual seconds).
  double straggler_tick = 500e-6;
  /// Whole-job attempts: after each failed attempt the failed nodes are
  /// blacklisted and partitions re-split across survivors.
  int max_job_attempts = 3;
};

/// Per-job knobs. Defaults follow the paper (§III.B.2).
struct JobConfig {
  ExecutionMode mode = ExecutionMode::kFunctional;
  SchedulingMode scheduling = SchedulingMode::kStatic;

  /// Use GPU / CPU daemons. GPU-only vs GPU+CPU is Figure 6's comparison.
  bool use_gpu = true;
  bool use_cpu = true;

  /// Override of the CPU workload fraction p; negative = derive from the
  /// analytic model (Eq (8)).
  double cpu_fraction_override = -1.0;

  /// Partitions per node created by the master task scheduler; the paper's
  /// default is two partitions per fat node.
  int partitions_per_node = 2;

  /// CPU blocks = multiplier x cores (paper's splitting pattern).
  int cpu_block_multiplier = 4;

  /// Dynamic mode: items per block (0 = auto: partition / (4*(cores+1))).
  std::size_t dynamic_block_items = 0;

  /// Overlap-percentage threshold for multi-stream GPU execution (Eq (9)).
  double stream_overlap_threshold = 0.2;

  /// Charge network time for distributing input partitions. Table 3 /
  /// Figure 6 pre-stage input ("copied into CPU and GPU memories in
  /// advance"), so the default is off.
  bool time_input_distribution = false;

  /// Charge the initial host->GPU staging of cached (loop-invariant) data.
  /// §IV.B excludes it as one-off, amortized overhead.
  bool time_initial_staging = false;

  /// Charge the one-time PRS job startup cost. The iterative driver sets
  /// this only on the first iteration.
  bool charge_job_startup = true;

  /// Explicit level-2 scheduling policy (non-owning; must outlive the job).
  /// When null the runner builds a stateless default from `scheduling` —
  /// set this to share one stateful policy (e.g. AdaptiveFeedbackPolicy)
  /// across jobs/iterations so it can learn.
  SchedulePolicy* policy = nullptr;

  /// Fault injector (non-owning; must outlive the job). When set, the job
  /// runs on the fault-tolerant path: timeouts + retries, straggler
  /// speculation, reliable shuffle/gather, node blacklisting. When null
  /// (default) the fault-free fast path runs, byte-identical to a build
  /// without the fault subsystem.
  fault::FaultInjector* faults = nullptr;

  /// Tolerance knobs; read only when `faults` is set.
  FaultToleranceConfig tolerance;

  /// Service-layer hook (prs::svc): when set, run_iterative invokes it at
  /// every iteration boundary (before the iteration's broadcast/run_job).
  /// The multi-tenant job server parks the job's thread here until its
  /// fair-share scheduler grants the next time slice; throwing aborts the
  /// job between iterations (cooperative cancellation). Unset (the
  /// default) costs one bool check per iteration and changes nothing.
  std::function<void(int iteration)> stage_gate;

  /// Ranks known dead before the job starts (e.g. from a crash detected in a
  /// previous iteration of run_iterative). The fault-tolerant path excludes
  /// them from the initial split instead of rediscovering the crash through
  /// timeouts; they are not re-counted in `JobStats::blacklisted_nodes`.
  /// Rank 0 (the master) cannot be presumed dead. Read only when `faults`
  /// is set.
  std::vector<int> presumed_dead;

  /// Execution engine. kGraph builds each job as one task graph; see
  /// DESIGN.md §4h for the routing rules (dynamic scheduling and
  /// crash/link fault plans fall back to the stage runner).
  ExecEngine engine = ExecEngine::kStages;

  /// Iteration pipelining depth for run_iterative on the graph engine:
  /// up to `depth` iterations are in flight, iteration i+1's map on rank r
  /// starting once iteration i's reduce on r finished (plus the state
  /// broadcast for apps that carry state). 1 = no pipelining. Read only
  /// when engine == kGraph.
  int pipeline_depth = 1;

  /// When non-empty, the graph engine writes each built job graph as
  /// Graphviz DOT to this path (deterministic node ordering) before
  /// executing it. Iterative jobs overwrite the file per window; the
  /// final content is the last graph built.
  std::string graph_dump_path;

  /// Measured host vector-throughput multiplier fed into Eq (8): the
  /// scheduler scales the roofline CPU rate Fc by this factor before
  /// deriving the CPU fraction p = Fc/(Fc+Fg) (see
  /// WorkloadSplit::with_cpu_scale). 1.0 (the default) keeps the
  /// paper-calibrated split untouched; `prs_run --simd-calibrate` sets it
  /// from simd::measure_host_speedup().
  double host_simd_scale = 1.0;
};

/// Utilization and cost accounting for one job (or one iteration batch).
struct JobStats {
  double elapsed = 0.0;            // virtual seconds, job start to finish
  double cpu_busy = 0.0;           // sum over nodes
  double gpu_busy = 0.0;
  double cpu_flops = 0.0;
  double gpu_flops = 0.0;
  double pcie_bytes = 0.0;
  double network_bytes = 0.0;
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t intermediate_pairs = 0;
  int iterations = 1;

  // Critical-path phase breakdown (max across nodes, §III.A.2's stages):
  double startup_time = 0.0;  // job startup + input distribution
  double map_time = 0.0;      // map tasks + intermediate D2H
  double shuffle_time = 0.0;  // all-to-all of intermediate pairs
  double reduce_time = 0.0;   // reduce tasks on the devices
  double gather_time = 0.0;   // final gather onto the master

  // Fault-tolerance accounting (all zero on the fault-free path):
  std::uint64_t task_retries = 0;       // re-executions after fail/timeout
  std::uint64_t speculations = 0;       // straggler back-up attempts started
  std::uint64_t speculative_wins = 0;   // back-up finished first
  std::uint64_t double_completions = 0; // late duplicates discarded
  std::uint64_t retransmits = 0;        // wire-level retransmissions
  int blacklisted_nodes = 0;            // nodes excluded after failures
  int job_attempts = 1;                 // 1 = no job-level restart

  /// Aggregate application rate (flops per virtual second).
  double total_flops() const { return cpu_flops + gpu_flops; }
  double flops_rate() const {
    return elapsed > 0.0 ? total_flops() / elapsed : 0.0;
  }

  /// Field-by-field sum of `other` into this (defined below the field
  /// visitor). Note the default-1 fields (`iterations`, `job_attempts`) are
  /// summed like everything else; callers that need "count once" semantics
  /// (run_iterative) overwrite them after accumulating.
  void accumulate(const JobStats& other);
};

/// Visits every numeric field of two JobStats objects in lockstep:
/// fn(field_name, a_field, b_field). This is the single source of truth for
/// the JobStats field list — accumulate(), the checkpoint snapshot codec and
/// the reflection test in tests/ckpt_test.cpp all go through it, so a field
/// added here is summed, persisted and covered automatically. A field added
/// to the struct but NOT listed here trips the sizeof guard in that test.
template <typename StatsA, typename StatsB, typename Fn>
void visit_stats_fields2(StatsA& a, StatsB& b, Fn&& fn) {
  fn("elapsed", a.elapsed, b.elapsed);
  fn("cpu_busy", a.cpu_busy, b.cpu_busy);
  fn("gpu_busy", a.gpu_busy, b.gpu_busy);
  fn("cpu_flops", a.cpu_flops, b.cpu_flops);
  fn("gpu_flops", a.gpu_flops, b.gpu_flops);
  fn("pcie_bytes", a.pcie_bytes, b.pcie_bytes);
  fn("network_bytes", a.network_bytes, b.network_bytes);
  fn("map_tasks", a.map_tasks, b.map_tasks);
  fn("reduce_tasks", a.reduce_tasks, b.reduce_tasks);
  fn("intermediate_pairs", a.intermediate_pairs, b.intermediate_pairs);
  fn("iterations", a.iterations, b.iterations);
  fn("startup_time", a.startup_time, b.startup_time);
  fn("map_time", a.map_time, b.map_time);
  fn("shuffle_time", a.shuffle_time, b.shuffle_time);
  fn("reduce_time", a.reduce_time, b.reduce_time);
  fn("gather_time", a.gather_time, b.gather_time);
  fn("task_retries", a.task_retries, b.task_retries);
  fn("speculations", a.speculations, b.speculations);
  fn("speculative_wins", a.speculative_wins, b.speculative_wins);
  fn("double_completions", a.double_completions, b.double_completions);
  fn("retransmits", a.retransmits, b.retransmits);
  fn("blacklisted_nodes", a.blacklisted_nodes, b.blacklisted_nodes);
  fn("job_attempts", a.job_attempts, b.job_attempts);
}

/// Single-struct flavour of the visitor: fn(field_name, field).
template <typename Stats, typename Fn>
void visit_stats_fields(Stats& s, Fn&& fn) {
  visit_stats_fields2(s, s,
                      [&fn](const char* name, auto& f, auto&) { fn(name, f); });
}

inline void JobStats::accumulate(const JobStats& other) {
  visit_stats_fields2(
      *this, other,
      [](const char*, auto& into, const auto& from) { into += from; });
}

/// Final output of a job: the reduced key/value map plus statistics.
template <typename K, typename V>
struct JobResult {
  std::map<K, V> output;
  JobStats stats;
};

}  // namespace prs::core
