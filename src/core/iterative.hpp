// Iterative-application support (paper §III.C.3) with checkpoint/restart.
//
// C-means and GMM re-run the map/reduce pipeline every iteration over
// loop-invariant input (the event matrix) plus a small evolving state (the
// cluster parameters). The paper's runtime:
//   * caches the invariant data in GPU memory once, so iterations skip the
//     PCI-E staging (the GPU device daemon is the only GPU-context holder);
//   * treats the initial staging as one-off, amortized overhead that is
//     excluded from iteration timing (§IV.B);
//   * broadcasts the evolving state to all nodes each iteration.
//
// The driver below implements exactly that on top of run_job(). The
// application updates its state inside `on_iteration` (its map lambdas
// capture the state by shared pointer) and returns whether to continue.
//
// Checkpoint/restart (prs::ckpt): when a CheckpointConfig + StateCodec are
// supplied, the driver snapshots {iteration index, app state, accumulated
// JobStats, schedule-policy state, seeds} into the configured store every
// `interval` completed iterations (plus once before the first iteration and
// once at the end), charging the snapshot bytes to the virtual clock. On a
// node crash reported by the fault-tolerant layer it halts, keeping the
// checkpoints for a fresh process to --resume from, which replays the exact
// fault-free trajectory and is therefore byte-identical.
#pragma once

#include <functional>
#include <memory>

#include "ckpt/checkpoint.hpp"
#include "core/job_runner.hpp"

namespace prs::core {
namespace detail {

/// Broadcasts `state_bytes` of iteration state from the master and charges
/// the fabric for it.
inline sim::Process broadcast_state(Cluster& cluster, int rank,
                                    double state_bytes,
                                    std::shared_ptr<int> remaining) {
  auto& comm = cluster.fabric().comm(rank);
  simnet::Message mine =
      rank == 0 ? simnet::Message{state_bytes, true} : simnet::Message{};
  auto b = comm.broadcast(0, std::move(mine), kStateBroadcastTag);
  (void)co_await b;
  --*remaining;
}

/// Charges the one-time host->GPU staging of the cached invariant data.
inline sim::Process stage_invariant_data(Cluster& cluster, int rank,
                                         double bytes,
                                         std::shared_ptr<int> remaining) {
  auto& node = cluster.node(rank);
  if (node.gpu_count() > 0 && bytes > 0.0) {
    auto copy = node.gpu().default_stream().memcpy_h2d(bytes);
    co_await copy;
  }
  --*remaining;
}

/// Charges snapshot IO (write or restore) to the driver's virtual clock.
inline sim::Process ckpt_io_cost(sim::Simulator& sim, double seconds,
                                 std::shared_ptr<int> remaining) {
  if (seconds > 0.0) {
    auto d = sim::delay(sim, seconds);
    co_await d;
  }
  --*remaining;
}

}  // namespace detail

/// Result of an iterative run: final output plus accumulated statistics.
/// `stats.elapsed` covers the iterations only; `staging_time` holds the
/// one-off initial staging the paper amortizes away.
template <typename K, typename V>
struct IterativeResult {
  JobResult<K, V> last;
  JobStats stats;         // accumulated over iterations
  double staging_time = 0.0;
  int iterations = 0;     // distinct iterations completed (replays excluded)
};

/// Runs up to `max_iterations` map/reduce rounds. After each round,
/// `on_iteration(iter, result)` inspects the master's output, updates the
/// application state captured by the spec's lambdas, and returns true to
/// continue. `state_bytes` is the per-iteration broadcast size of that
/// state (e.g. the cluster-centers matrix). Every round is one run_job()
/// at any `cfg.pipeline_depth`; the depth only shapes that job's graph.
///
/// `checkpoint` + `codec` (both or neither) enable checkpoint/restart; see
/// the header comment. With checkpointing off the run is byte-identical to
/// a build without the ckpt subsystem.
template <typename K, typename V>
IterativeResult<K, V> run_iterative(
    Cluster& cluster, const MapReduceSpec<K, V>& spec, const JobConfig& cfg,
    std::size_t n_items, int max_iterations,
    const std::function<bool(int, const std::map<K, V>&)>& on_iteration,
    double state_bytes = 0.0,
    const ckpt::CheckpointConfig* checkpoint = nullptr,
    const ckpt::StateCodec* codec = nullptr) {
  PRS_REQUIRE(max_iterations >= 1, "need at least one iteration");
  const bool checkpointing = checkpoint != nullptr;
  if (checkpointing) {
    PRS_REQUIRE(checkpoint->store != nullptr,
                "CheckpointConfig needs a store");
    PRS_REQUIRE(codec != nullptr && codec->encode && codec->decode,
                "checkpointing needs a StateCodec with encode and decode");
    PRS_REQUIRE(checkpoint->interval >= 1,
                "checkpoint interval must be >= 1");
  }
  auto& sim = cluster.simulator();
  obs::TraceRecorder* tr = sim.tracer();
  if (tr != nullptr && !tr->enabled()) tr = nullptr;
  IterativeResult<K, V> out;

  // One-off staging of the loop-invariant data into GPU memory. The data
  // stays allocated for the whole iterative run, so it must actually fit
  // (a C2070 has 6 GB, Table 4) — allocation failures surface here rather
  // than as mysterious mid-job errors. `dead` masks crashed nodes when the
  // data is re-staged over the survivors; the initial pass stages every
  // node.
  std::vector<simdev::DeviceAllocation> cached_allocations;
  auto stage_cached = [&](const std::vector<char>& dead, bool allocate) {
    if (!spec.gpu_data_cached || !cfg.use_gpu) return;
    int live = 0;
    for (int r = 0; r < cluster.size(); ++r) {
      if (dead.empty() || !dead[static_cast<std::size_t>(r)]) ++live;
    }
    PRS_CHECK(live > 0, "no live nodes to stage data onto");
    auto remaining = std::make_shared<int>(live);
    const double bytes_per_node = static_cast<double>(n_items) *
                                  spec.item_bytes / static_cast<double>(live);
    for (int r = 0; r < cluster.size(); ++r) {
      if (!dead.empty() && dead[static_cast<std::size_t>(r)]) continue;
      auto& node = cluster.node(r);
      if (allocate && node.gpu_count() > 0) {
        // The invariant data is spread across the node's cards.
        const auto per_card =
            static_cast<std::uint64_t>(bytes_per_node / node.gpu_count());
        for (int g = 0; g < node.gpu_count(); ++g) {
          cached_allocations.push_back(node.gpu(g).allocate(per_card));
        }
      }
      sim.spawn(detail::stage_invariant_data(cluster, r, bytes_per_node,
                                             remaining));
    }
    sim.run();
    PRS_CHECK(*remaining == 0, "staging did not complete");
  };
  {
    const double t0 = sim.now();
    stage_cached({}, /*allocate=*/true);
    out.staging_time = sim.now() - t0;
  }

  double iter_t0 = sim.now();
  JobConfig iter_cfg = cfg;
  // After a job blacklisted a node: the ranks the injector reports crashed
  // start the later jobs presumed dead, so those split around them instead
  // of rediscovering the crash, and the invariant data is re-staged over
  // the survivors (their shares grew).
  auto crashed_ranks = [&] {
    std::vector<int> ranks;
    for (int r = 1; r < cluster.size(); ++r) {
      if (cfg.faults->node_crashed(r)) ranks.push_back(r);
    }
    return ranks;
  };
  auto exclude_crashed = [&] {
    iter_cfg.presumed_dead = crashed_ranks();
    std::vector<char> dead(static_cast<std::size_t>(cluster.size()), 0);
    for (int r : iter_cfg.presumed_dead) dead[static_cast<std::size_t>(r)] = 1;
    stage_cached(dead, /*allocate=*/false);
  };
  // One policy instance across all iterations: stateful policies (e.g.
  // AdaptiveFeedbackPolicy) refine their split from each iteration's
  // observed busy times instead of starting over every round.
  StaticAnalyticPolicy static_policy;
  if (iter_cfg.policy == nullptr) iter_cfg.policy = &static_policy;

  // Checkpoint bookkeeping. out.stats holds normalized totals for the
  // `out.iterations` distinct iterations completed so far: `iterations`
  // counts each distinct iteration exactly once, `job_attempts` is 1 +
  // retries beyond one run_job per iteration, and `elapsed` is maintained
  // across process restarts via the snapshot.
  double restored_elapsed = 0.0;  // elapsed accumulated by prior processes
  int extra_attempts = 0;
  int start_iter = 0;
  bool finished = false;

  // Snapshot IO of `bytes` (write or restore) on the virtual clock.
  auto charge_io = [&](std::size_t bytes) {
    const double seconds = ckpt::kSnapshotLatency +
                           static_cast<double>(bytes) /
                               ckpt::kSnapshotBandwidth;
    auto remaining = std::make_shared<int>(1);
    sim.spawn(detail::ckpt_io_cost(sim, seconds, remaining));
    sim.run();
    PRS_CHECK(*remaining == 0, "checkpoint IO did not complete");
  };

  auto write_snapshot = [&](int next_iteration, bool fin) {
    ckpt::Snapshot snap;
    snap.app = codec->tag;
    snap.next_iteration = next_iteration;
    snap.iterations_done = out.iterations;
    snap.finished = fin;
    snap.run_seed = checkpoint->run_seed;
    snap.fault_seed = checkpoint->fault_seed;
    snap.policy_name = iter_cfg.policy->name();
    {
      ckpt::Writer w;
      iter_cfg.policy->save_state(w);
      snap.policy_state = w.take();
    }
    {
      ckpt::Writer w;
      codec->encode(w);
      snap.app_state = w.take();
    }
    snap.stats = out.stats;
    snap.stats.elapsed = restored_elapsed + (sim.now() - iter_t0);
    snap.stats.iterations = out.iterations;
    snap.stats.job_attempts = 1 + extra_attempts;
    const std::string blob = ckpt::encode_snapshot(snap);
    const double t0 = sim.now();
    charge_io(blob.size());
    checkpoint->store->put(
        ckpt::snapshot_key(checkpoint->prefix, next_iteration), blob);
    ckpt::prune_snapshots(*checkpoint->store, checkpoint->prefix,
                          ckpt::kSnapshotsKept);
    if (tr != nullptr) {
      tr->complete(tr->track("ckpt", "driver"), "ckpt.write", "ckpt", t0,
                   sim.now(),
                   {obs::arg("next_iteration",
                             static_cast<std::uint64_t>(
                                 static_cast<unsigned>(next_iteration))),
                    obs::arg("bytes",
                             static_cast<std::uint64_t>(blob.size()))});
      tr->metrics().counter("ckpt.writes").add(1.0);
      tr->metrics().counter("ckpt.write_bytes")
          .add(static_cast<double>(blob.size()));
    }
  };

  // Restores a snapshot into the driver state; elapsed continues from the
  // snapshot's.
  auto restore_snapshot = [&](const ckpt::Snapshot& snap) {
    PRS_REQUIRE(snap.app == codec->tag,
                "checkpoint belongs to app '" + snap.app +
                    "', cannot resume '" + codec->tag + "'");
    PRS_REQUIRE(snap.run_seed == checkpoint->run_seed &&
                    snap.fault_seed == checkpoint->fault_seed,
                "checkpoint was taken under different seeds; resuming would "
                "diverge from the original trajectory");
    PRS_REQUIRE(snap.policy_name == iter_cfg.policy->name(),
                "checkpoint was taken under policy '" + snap.policy_name +
                    "', run uses '" + iter_cfg.policy->name() + "'");
    {
      ckpt::Reader r(snap.policy_state);
      iter_cfg.policy->restore_state(r);
    }
    {
      ckpt::Reader r(snap.app_state);
      codec->decode(r);
    }
    out.stats = snap.stats;
    out.iterations = snap.iterations_done;
    extra_attempts = snap.stats.job_attempts - 1;
    restored_elapsed = snap.stats.elapsed;
  };

  // Fresh-process resume: pick up the newest snapshot before running
  // anything. The charged restore time models reading the snapshot back.
  bool resumed = false;
  if (checkpointing && checkpoint->recover) {
    const std::string key =
        ckpt::latest_snapshot_key(*checkpoint->store, checkpoint->prefix);
    if (!key.empty()) {
      std::string blob;
      PRS_CHECK(checkpoint->store->get(key, &blob),
                "latest snapshot key vanished from the store");
      const double t0 = sim.now();
      charge_io(blob.size());
      const ckpt::Snapshot snap = ckpt::decode_snapshot(blob);
      restore_snapshot(snap);
      iter_t0 = t0;  // the restore IO charged above counts toward elapsed
      start_iter = snap.next_iteration;
      finished = snap.finished;
      resumed = true;
      if (tr != nullptr) {
        tr->complete(tr->track("ckpt", "driver"), "ckpt.restore", "ckpt", t0,
                     sim.now(),
                     {obs::arg("next_iteration",
                               static_cast<std::uint64_t>(
                                   static_cast<unsigned>(start_iter)))});
        tr->metrics().counter("ckpt.restores").add(1.0);
      }
    }
  }
  // Baseline snapshot before the first iteration, so a crash inside
  // iteration 0 is recoverable too.
  if (checkpointing && !resumed) write_snapshot(start_iter, false);

  int iter = start_iter;
  while (iter < max_iterations && !finished) {
    // Multi-tenant service gate: the job server interleaves concurrent
    // jobs at this boundary (and cancels cooperatively by throwing).
    if (cfg.stage_gate) cfg.stage_gate(iter);

    iter_cfg.charge_job_startup = cfg.charge_job_startup && iter == 0;

    // Broadcast the evolving state (cluster centers etc.).
    if (state_bytes > 0.0 && cluster.size() > 1) {
      auto remaining = std::make_shared<int>(cluster.size());
      for (int r = 0; r < cluster.size(); ++r) {
        sim.spawn(detail::broadcast_state(cluster, r, state_bytes,
                                          remaining));
      }
      sim.run();
      PRS_CHECK(*remaining == 0, "state broadcast did not complete");
    }

    out.last = run_job(cluster, spec, iter_cfg, n_items);

    // A blacklisted node this round means the faulted job saw a node
    // failure. With checkpointing on, the iteration's output is discarded
    // (its FP state was produced by a survivor re-split) and the run halts
    // for a fresh --resume. Without it the output stands, and the later
    // iterations start without the crashed nodes.
    const bool node_failed =
        iter_cfg.faults != nullptr && out.last.stats.blacklisted_nodes > 0;
    if (checkpointing && node_failed) {
      const std::string key = ckpt::latest_snapshot_key(*checkpoint->store,
                                                        checkpoint->prefix);
      throw Error("node crash during iteration " + std::to_string(iter) +
                  "; state up to the latest checkpoint '" + key +
                  "' is preserved in " + checkpoint->store->name() +
                  " — rerun with recovery enabled to resume");
    }

    out.stats.accumulate(out.last.stats);
    ++out.iterations;
    extra_attempts += out.last.stats.job_attempts - 1;
    // Re-normalize the fields accumulate() summed blindly: iterations
    // counts distinct iterations, job_attempts is 1 + extra retries, and
    // elapsed is recomputed from the clock below.
    out.stats.iterations = out.iterations;
    out.stats.job_attempts = 1 + extra_attempts;

    const bool cont = on_iteration(iter, out.last.output);
    finished = !cont || iter + 1 >= max_iterations;
    if (node_failed && !finished &&
        crashed_ranks() != iter_cfg.presumed_dead) {
      exclude_crashed();
    }
    if (checkpointing &&
        (finished || out.iterations % checkpoint->interval == 0)) {
      write_snapshot(iter + 1, finished);
    }
    ++iter;
  }
  out.stats.elapsed = restored_elapsed + (sim.now() - iter_t0);
  out.stats.iterations = out.iterations;
  out.stats.job_attempts = 1 + extra_attempts;
  return out;
}

}  // namespace prs::core
