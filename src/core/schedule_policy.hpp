// Level-2 sub-task scheduling policies (paper §III.B.2, §III.B.3).
//
// The per-node sub-task scheduler is a first-class, swappable component
// (the StarPU shape: pluggable policies with performance-model feedback):
//
//   * StaticAnalyticPolicy  — the paper's static strategy: CPU share p from
//     Eq (8), stream count from Eqs (9)-(11), blocks enqueued up front;
//   * DynamicBlockPolicy    — the paper's dynamic strategy: fixed-size
//     blocks in a channel polled by idle device daemons, block size floored
//     at MinBs (Eqs (10)-(11)) so GPU blocks still saturate the card;
//   * AdaptiveFeedbackPolicy — starts from the analytic p and refines it
//     per node after every job/iteration from the observed CPU/GPU busy
//     times (the paper's "runtime measurements" escape hatch).
//
// A policy answers three questions for the runner, in order:
//   1. node_decision(): the CPU fraction p and the node's capability weight
//      (consumed by the level-1 Partitioner);
//   2. gpu_streams(): the per-node stream count once partitions are known;
//   3. block_items(): the dynamic-dispatch block granularity (only read
//      when dispatch() == SchedulingMode::kDynamic).
// After each job the runner calls observe() with per-node busy times, which
// stateful policies use to learn; the iterative driver carries one policy
// instance across iterations so that learning accumulates.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "roofline/analytic_scheduler.hpp"

namespace prs::ckpt {
class Writer;  // ckpt/codec.hpp; policies serialize learned state into
class Reader;  // checkpoint snapshots without depending on the full header
}

namespace prs::core {

class Cluster;

/// Type-erased view of the MapReduceSpec fields the scheduler reads —
/// policies are not templated on the job's key/value types.
struct JobShape {
  double ai_cpu = 1.0;
  double ai_gpu = 1.0;
  bool gpu_data_cached = false;
  double item_bytes = 0.0;
  /// AI as a function of GPU block bytes (Fag, Eq (10)); never null.
  roofline::AiOfBlock ai_of_block;
};

/// One node's level-2 decision, produced before the level-1 split.
struct NodeDecision {
  double cpu_fraction = 0.0;  // p: share of the node's input mapped on CPU
  double capability = 0.0;    // Fc + Fg: the node's level-1 weight
};

/// Observed execution of one job on one node, fed back to the policy.
struct NodeFeedback {
  int rank = 0;
  double cpu_fraction = 0.0;  // p the node ran with
  double cpu_busy = 0.0;      // core-seconds this job
  double gpu_busy = 0.0;      // card-seconds this job
  int cpu_cores = 1;
  int gpu_cards = 0;
};

struct JobFeedback {
  double elapsed = 0.0;
  std::vector<NodeFeedback> nodes;
};

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy();

  /// Identifier used in traces ("sched.decision" mode arg) and the CLI.
  virtual std::string name() const = 0;

  /// How the map stage hands blocks to the device daemons.
  virtual SchedulingMode dispatch() const = 0;

  /// The CPU fraction p (Eq (8), overrides, single-backend cases) and the
  /// node's capability weight for the level-1 split. The base
  /// implementation is the analytic model; stateful policies refine it.
  virtual NodeDecision node_decision(Cluster& cluster, const JobShape& shape,
                                     const JobConfig& cfg, int rank);

  /// Streams per GPU card (Eqs (9)-(11)) once the node's share is known.
  virtual int gpu_streams(Cluster& cluster, const JobShape& shape,
                          const JobConfig& cfg, int rank,
                          std::size_t node_items, double cpu_fraction);

  /// Dynamic dispatch: items per polled block for one partition.
  virtual std::size_t block_items(Cluster& cluster, const JobShape& shape,
                                  const JobConfig& cfg, int rank,
                                  std::size_t partition_items);

  /// Post-job feedback; default no-op (stateless policies).
  virtual void observe(const JobFeedback& feedback);

  /// Serialize / restore learned state for checkpoint snapshots. Stateless
  /// policies write nothing (default). restore_state() must accept a blob
  /// written by save_state() of the same policy class; the snapshot layer
  /// guards cross-policy restores via name().
  virtual void save_state(ckpt::Writer& w) const;
  virtual void restore_state(ckpt::Reader& r);
};

/// §III.B.2 static strategy: pure Eq (8) + Eqs (9)-(11), no runtime state.
class StaticAnalyticPolicy final : public SchedulePolicy {
 public:
  std::string name() const override { return "static"; }
  SchedulingMode dispatch() const override { return SchedulingMode::kStatic; }
};

/// §III.B.2 dynamic strategy: idle daemons poll fixed-size blocks. The
/// automatic block size is the load-balance target partition/(4*(cores+1))
/// floored at MinBs (Eqs (10)-(11)) — blocks smaller than MinBs cannot
/// saturate the GPU, so the analytic floor replaces the ad-hoc heuristic
/// whenever the model yields one.
class DynamicBlockPolicy final : public SchedulePolicy {
 public:
  std::string name() const override { return "dynamic"; }
  SchedulingMode dispatch() const override {
    return SchedulingMode::kDynamic;
  }
  std::size_t block_items(Cluster& cluster, const JobShape& shape,
                          const JobConfig& cfg, int rank,
                          std::size_t partition_items) override;
};

/// StarPU-style measured policy: static dispatch, but p is refined per node
/// after every observed job from the CPU/GPU busy times, starting from the
/// analytic p (or `initial_fraction` when set — useful to demonstrate
/// convergence from a deliberately wrong start).
class AdaptiveFeedbackPolicy final : public SchedulePolicy {
 public:
  /// `gain` in (0, 1]: weight of the newly observed balance point per
  /// update (exponential smoothing towards the measured optimum).
  explicit AdaptiveFeedbackPolicy(double gain = 0.5,
                                  double initial_fraction = -1.0);

  std::string name() const override { return "adaptive"; }
  SchedulingMode dispatch() const override { return SchedulingMode::kStatic; }
  NodeDecision node_decision(Cluster& cluster, const JobShape& shape,
                             const JobConfig& cfg, int rank) override;
  void observe(const JobFeedback& feedback) override;
  void save_state(ckpt::Writer& w) const override;
  void restore_state(ckpt::Reader& r) override;

  /// The current learned p for one node; negative when nothing has been
  /// observed yet (the analytic p applies).
  double learned_fraction(int rank) const;

 private:
  double gain_;
  double initial_fraction_;
  std::map<int, double> learned_;
};

/// CLI factory: "static" | "dynamic" | "adaptive".
std::unique_ptr<SchedulePolicy> make_policy(const std::string& name);

}  // namespace prs::core
