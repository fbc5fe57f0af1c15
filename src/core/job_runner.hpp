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
// Every job then runs the map -> combine -> shuffle -> reduce -> gather
// stage objects (core/pipeline.hpp) as one task graph (core/job_graph.hpp);
// with a fault injector the graph's nodes take their faulted form and the
// job runs in attempts. run_job() drives the simulator until the job
// completes and returns results + utilization stats, feeding observed busy
// times back to the policy so stateful policies can learn across
// jobs/iterations.
#pragma once

#include "core/job_graph.hpp"
#include "core/schedule_policy.hpp"

namespace prs::core {

/// Runs one MapReduce job on the cluster and drives the simulator until it
/// completes. Returns results (on the master) and utilization statistics.
/// Without cfg.policy the job runs under the static policy.
template <typename K, typename V>
JobResult<K, V> run_job(Cluster& cluster, const MapReduceSpec<K, V>& spec,
                        const JobConfig& cfg, std::size_t n_items) {
  spec.validate();
  PRS_REQUIRE(cfg.use_cpu || cfg.use_gpu, "job needs at least one backend");
  PRS_REQUIRE(n_items > 0, "job needs a non-empty input");
  StaticAnalyticPolicy static_policy;
  SchedulePolicy* policy = cfg.policy != nullptr ? cfg.policy : &static_policy;
  return detail::run_job_graph<K, V>(cluster, spec, cfg, n_items, policy);
}

}  // namespace prs::core
