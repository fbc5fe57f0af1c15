// The PRS job runner: a thin orchestrator over the layered pipeline.
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
// Each node then runs the map -> combine -> shuffle -> reduce -> gather
// stage objects (core/pipeline.hpp) from the node_main coroutine below;
// run_job() drives the simulator until the job completes and returns
// results + utilization stats, feeding observed busy times back to the
// policy so stateful policies can learn across jobs/iterations.
//
// NOTE (GCC 12): all co_await sites below follow the named-temporary rule
// documented in simtime/process.hpp.
#pragma once

#include <memory>
#include <vector>

#include "core/fault_tolerant.hpp"
#include "core/job_graph.hpp"
#include "core/partitioner.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_policy.hpp"

namespace prs::core {
namespace detail {

/// The per-node worker process: §III.A.2's pipeline, one stage at a time.
template <typename K, typename V>
sim::Process node_main(Cluster& cluster, std::shared_ptr<JobState<K, V>> st,
                       SchedulePolicy* policy, int rank) {
  auto& sim = cluster.simulator();
  auto& comm = cluster.fabric().comm(rank);
  const auto& spec = *st->spec;
  const JobConfig& cfg = st->cfg;
  const int nodes = cluster.size();
  const auto rk = static_cast<std::size_t>(rank);

  // Per-node phase spans + scheduler-decision markers go on the node's
  // "runner" track; tr == nullptr (the default) keeps every record site to
  // one branch.
  obs::TraceRecorder* tr = sim.tracer();
  if (tr != nullptr && !tr->enabled()) tr = nullptr;
  StageContext<K, V> ctx;
  ctx.cluster = &cluster;
  ctx.st = st.get();
  ctx.policy = policy;
  ctx.rank = rank;
  obs::ScopedSpan job_span;
  if (tr != nullptr) {
    ctx.tr = tr;
    ctx.runner_track = tr->track("node" + std::to_string(rank), "runner");
    // The level-2 decision this node runs with: Eq (8)'s CPU share p,
    // Eqs (9)-(11)'s stream count, and the block granularities.
    tr->instant(
        ctx.runner_track, "sched.decision", "sched",
        {obs::arg("p", st->cpu_fraction[rk]),
         obs::arg("gpu_streams", st->gpu_streams[rk]),
         obs::arg("partitions",
                  static_cast<std::uint64_t>(st->node_partitions[rk].size())),
         obs::arg("cpu_blocks",
                  roofline::AnalyticScheduler::cpu_block_count(
                      ctx.node().cpu().cores(), cfg.cpu_block_multiplier)),
         obs::arg("mode", policy->name())});
    job_span =
        obs::ScopedSpan(tr, ctx.runner_track, spec.name + ":job", "job");
  }

  const double phase_t0 = sim.now();

  // -- job startup (master handshake, daemon spin-up) ------------------------
  if (cfg.charge_job_startup) {
    co_await sim::delay(sim, calib::kPrsJobStartup);
  }

  // -- optional input distribution over the fabric ---------------------------
  std::size_t node_items = 0;
  for (const auto& p : st->node_partitions[rk]) node_items += p.size();
  if (cfg.time_input_distribution && nodes > 1) {
    if (rank == 0) {
      for (int dst = 1; dst < nodes; ++dst) {
        std::size_t dst_items = 0;
        for (const auto& p :
             st->node_partitions[static_cast<std::size_t>(dst)]) {
          dst_items += p.size();
        }
        simnet::Message m{static_cast<double>(dst_items) * spec.item_bytes,
                          {}};
        comm.send(dst, kDistributeTag, std::move(m));
      }
    } else {
      auto r = comm.recv(0, kDistributeTag);
      (void)co_await r;
    }
  }

  st->startup_time = std::max(st->startup_time, sim.now() - phase_t0);
  if (tr != nullptr && sim.now() > phase_t0) {
    tr->complete(ctx.runner_track, "startup", "phase", phase_t0, sim.now());
  }
  const double map_t0 = sim.now();

  // -- map stage --------------------------------------------------------------
  MapStage<K, V> map(ctx);
  for (const InputSlice& partition : st->node_partitions[rk]) {
    if (partition.empty()) continue;
    // Sub-task scheduler round for this partition.
    co_await sim::delay(sim, calib::kPrsIterationOverhead);
    if (policy->dispatch() == SchedulingMode::kStatic) {
      // Task-dispatch overhead is serial on the daemon thread; charge it
      // up front for the blocks this partition will produce.
      co_await sim::delay(sim, map.static_dispatch_cost());
      map.dispatch_static(partition);
    } else {
      // Dynamic: fixed-size blocks polled by idle daemons; dispatch cost
      // is charged per block as the dispatcher hands them out.
      auto drained = map.start_dynamic(partition);
      co_await drained;
    }
  }
  auto maps_done = map.barrier();
  co_await maps_done;
  auto d2h = map.copy_back();
  co_await d2h;
  co_await sim::delay(sim, map.host_merge_cost(node_items));
  map.finish(map_t0, node_items);

  // -- local combine + shuffle ------------------------------------------------
  ShuffleStage<K, V> shuffle(ctx);
  auto outbound =
      shuffle.prepare(map.batch(), static_cast<std::size_t>(cluster.size()));
  const double shuffle_t0 = sim.now();
  auto a2a = comm.all_to_all(std::move(outbound), kShuffleTag);
  std::vector<simnet::Message> inbound = co_await a2a;
  shuffle.finish(shuffle_t0);

  // -- reduce stage -----------------------------------------------------------
  const double reduce_t0 = sim.now();
  ReduceStage<K, V> reduce(ctx);
  std::size_t reduce_pairs = 0;
  PairRun<K, V> reduced = reduce.merge(inbound, reduce_pairs);
  auto reduce_futs = reduce.submit_device_tasks(reduce_pairs);
  auto reduces_done = sim::when_all(sim, reduce_futs);
  co_await reduces_done;
  reduce.finish(reduce_t0, reduce_pairs);

  // -- gather final values on the master --------------------------------------
  const double gather_t0 = sim.now();
  GatherStage<K, V> gather(ctx);
  simnet::Message mine = gather.pack(std::move(reduced));
  auto g = comm.gather(0, std::move(mine), kGatherTag);
  std::vector<simnet::Message> gathered = co_await g;
  if (rank == 0) gather.unpack_on_master(gathered);
  gather.finish(gather_t0);

  // Region-based memory: all of this job's intermediates go at once.
  ctx.node().region().clear();
  ++st->nodes_done;
}

}  // namespace detail

/// Runs one MapReduce job on the cluster and drives the simulator until it
/// completes. Returns results (on the master) and utilization statistics.
template <typename K, typename V>
JobResult<K, V> run_job(Cluster& cluster, const MapReduceSpec<K, V>& spec,
                        const JobConfig& cfg, std::size_t n_items) {
  spec.validate();
  PRS_REQUIRE(cfg.use_cpu || cfg.use_gpu, "job needs at least one backend");
  PRS_REQUIRE(n_items > 0, "job needs a non-empty input");

  auto& sim = cluster.simulator();

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

  // Graph engine: the same stages built as one task graph per job.
  // Dynamic scheduling keeps the channel-polling daemons of the stage
  // runner — its block assignment is inherently time-driven, not a static
  // dependency structure.
  if (cfg.engine == ExecEngine::kGraph &&
      policy->dispatch() == SchedulingMode::kStatic) {
    return detail::run_job_graph<K, V>(cluster, spec, cfg, n_items, policy);
  }

  // Level-1/level-2 scheduling decisions (shared with the graph engine).
  const int nodes = cluster.size();
  auto st = detail::make_job_state(cluster, spec, cfg, n_items, policy);

  // Snapshot counters, run, and diff.
  const double t0 = sim.now();
  const detail::ClusterCounters counters0 = detail::snapshot_counters(cluster);
  for (int r = 0; r < nodes; ++r) {
    sim.spawn(detail::node_main<K, V>(cluster, st, policy, r));
  }
  sim.run();
  PRS_CHECK(st->nodes_done == nodes, "job finished with missing nodes");

  JobResult<K, V> result;
  result.output = std::move(st->final_output);
  result.stats = detail::collect_stats(cluster, counters0, *st,
                                       sim.now() - t0);

  // Feed observed per-node busy times back so stateful policies (adaptive)
  // can refine their split for the next job/iteration.
  policy->observe(detail::collect_feedback(cluster, counters0,
                                           st->cpu_fraction,
                                           result.stats.elapsed));
  detail::record_job_metrics(sim, *st, result.stats.elapsed);
  return result;
}

}  // namespace prs::core
