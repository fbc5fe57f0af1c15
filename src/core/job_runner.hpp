// The PRS job runner: one entry point over the layered pipeline.
//
// Level 1 (master task scheduler): the Partitioner splits the input among
// the fat nodes by capability and chops each share into
// `partitions_per_node` partitions (paper default: two per fat node).
//
// Level 2 (per-node sub-task scheduler): a pluggable SchedulePolicy —
// static (Eq (8) + Eqs (9)-(11)), dynamic (channel-polled blocks), or
// adaptive (analytic p refined from observed busy times) — decides the
// CPU/GPU split, stream counts and block granularity.
//
// A fault-free job then runs the map -> combine -> shuffle -> reduce ->
// gather stage objects (core/pipeline.hpp) as one task graph
// (core/job_graph.hpp); a job with a fault injector runs them under the
// tolerant supervisor (core/fault_tolerant.hpp). run_job() drives the
// simulator until the job completes and returns results + utilization
// stats, feeding observed busy times back to the policy so stateful
// policies can learn across jobs/iterations.
#pragma once

#include <memory>

#include "core/fault_tolerant.hpp"
#include "core/job_graph.hpp"
#include "core/schedule_policy.hpp"

namespace prs::core {

/// Runs one MapReduce job on the cluster and drives the simulator until it
/// completes. Returns results (on the master) and utilization statistics.
template <typename K, typename V>
JobResult<K, V> run_job(Cluster& cluster, const MapReduceSpec<K, V>& spec,
                        const JobConfig& cfg, std::size_t n_items) {
  spec.validate();
  PRS_REQUIRE(cfg.use_cpu || cfg.use_gpu, "job needs at least one backend");
  PRS_REQUIRE(n_items > 0, "job needs a non-empty input");

  // The level-2 policy: an explicit (possibly stateful) instance from the
  // config, or a stateless default built from cfg.scheduling.
  std::unique_ptr<SchedulePolicy> default_policy;
  SchedulePolicy* policy = cfg.policy;
  if (policy == nullptr) {
    default_policy = make_policy(cfg.scheduling);
    policy = default_policy.get();
  }

  // With a fault injector attached the job runs on the tolerant path
  // (timeouts, retries, speculation, blacklisting); without one, nothing
  // below this line changes and virtual time stays byte-identical.
  if (cfg.faults != nullptr) {
    return detail::run_job_tolerant<K, V>(cluster, spec, cfg, n_items,
                                          policy);
  }
  return detail::run_job_graph<K, V>(cluster, spec, cfg, n_items, policy);
}

}  // namespace prs::core
