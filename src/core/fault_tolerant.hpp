// Fault-tolerant execution path of the PRS job runner.
//
// Engaged only when JobConfig::faults is set (run_job branches here); the
// fault-free job graph (core/job_graph.hpp) never touches this code, so its
// virtual-time behaviour stays byte-identical with or without a fault plan.
//
// Tolerance mechanisms, layered over the same stage machinery:
//   * per-block timeouts — every map attempt races a deadline derived from
//     its modeled roofline duration (x queue depth x task_timeout_factor);
//   * bounded retry with exponential backoff, alternating device class so
//     a wedged GPU stream falls back to CPU (and vice versa);
//   * straggler speculation — a watchdog compares in-flight blocks against
//     the median completed duration and launches a backup attempt on the
//     other device class; first result wins, late duplicates are discarded;
//   * failure announcement — a node that exhausts retries posts kNodeFailed
//     to every supervisor (the simulator's stand-in for peer failure
//     detection), aborting the job attempt;
//   * blacklisting + re-split — run_job_tolerant removes failed nodes from
//     the alive set, gives them zero capability so the level-1 Partitioner
//     re-splits the input across survivors, and restarts the job (up to
//     max_job_attempts); silent stalls (a node crashing mid-send) are
//     diagnosed post-mortem from the expecting/got message bookkeeping.
//
// Shuffle and gather run over the *alive* set only (keys hash onto alive
// ranks), and every point-to-point send rides the fabric's ack/retransmit
// protocol, which is active whenever a fault hook is attached.
//
// NOTE (GCC 12): all co_await sites follow the named-temporary rule
// documented in simtime/process.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/schedule_policy.hpp"
#include "fault/injector.hpp"

namespace prs::core {
namespace detail {

/// Each job-level attempt gets its own tag space so messages of an aborted
/// attempt can never be mistaken for the restart's (stride is far below
/// simnet's collective phase stride of 1 << 24).
inline constexpr int kAttemptTagStride = 1 << 16;

/// Event delivered to a node supervisor's event loop.
struct FtEvent {
  enum class Kind { kBlockDone, kNodeFailed, kPeerMessage };
  Kind kind = Kind::kBlockDone;
  bool speculative = false;  // kBlockDone: a backup attempt won
  int rank = -1;             // kNodeFailed: who; kPeerMessage: source
  simnet::Message payload;   // kPeerMessage
};

/// Control state of one job-level attempt, shared by all node supervisors.
struct FtControl {
  explicit FtControl(int nodes)
      : node_done(static_cast<std::size_t>(nodes), 0),
        expecting(static_cast<std::size_t>(nodes),
                  std::vector<char>(static_cast<std::size_t>(nodes), 0)),
        got(static_cast<std::size_t>(nodes),
            std::vector<char>(static_cast<std::size_t>(nodes), 0)) {}

  int attempt = 0;  // job-level attempt index (tag space selector)
  bool aborted = false;
  double finish_time = -1.0;  // sim.now() at master gather completion
  std::vector<char> node_done;
  std::vector<int> failed_ranks;
  // Failure bulletin: every alive supervisor subscribes its event channel.
  std::map<int, std::shared_ptr<sim::Channel<FtEvent>>> subs;
  // Post-mortem stall diagnosis: expecting[r][s] = r still awaits a message
  // from s in the current phase; got[r][s] = r heard from s this attempt.
  std::vector<std::vector<char>> expecting;
  std::vector<std::vector<char>> got;
  // Tolerance counters, folded into JobStats by run_job_tolerant.
  std::uint64_t task_retries = 0;
  std::uint64_t speculations = 0;
  std::uint64_t speculative_wins = 0;
  std::uint64_t double_completions = 0;
};

inline void ft_announce_failure(FtControl& ctl, int rank) {
  for (int r : ctl.failed_ranks) {
    if (r == rank) return;
  }
  ctl.failed_ranks.push_back(rank);
  ctl.aborted = true;
  FtEvent ev;
  ev.kind = FtEvent::Kind::kNodeFailed;
  ev.rank = rank;
  for (auto& [r, ch] : ctl.subs) ch->send(ev);
}

/// Per-node shared state of the fault-tolerant map stage. Heap-allocated and
/// shared: attempt processes, the straggler ticker, recv pumps and every
/// in-flight device body hold a reference, so a late completion (e.g. a
/// timed-out CPU task finishing after the job moved on) can never write
/// into freed emitters.
template <typename K, typename V>
struct FtNodeState {
  StageContext<K, V> ctx;
  std::shared_ptr<JobState<K, V>> st;  // keepalive for ctx.st
  std::shared_ptr<FtControl> ctl;
  std::vector<int> alive;  // alive ranks, ascending (includes self)
  int tag_base = 0;

  struct Block {
    InputSlice slice;
    bool prefer_gpu = false;
    int card = 0;
    int stream = 0;
    bool done = false;
    bool speculated = false;
    double started_at = 0.0;
    std::size_t winner = 0;  // index into `emitters`
    bool winner_gpu = false;
  };
  std::vector<Block> blocks;
  // One emitter + fail flag per launched attempt; deques give stable
  // addresses for the device-body captures. Losers' pairs are discarded.
  std::deque<Emitter<K, V>> emitters;
  std::deque<bool> attempt_failed;
  std::vector<double> durations;  // elapsed times of completed blocks
  std::size_t blocks_done = 0;
  bool map_active = true;  // gates the ticker
  std::shared_ptr<sim::Channel<FtEvent>> events;
  // Expected queueing depth per device class (blocks per execution slot),
  // folded into the per-attempt deadline so a fully loaded fault-free
  // device does not trip spurious timeouts.
  double cpu_depth = 1.0;
  double gpu_depth = 1.0;

  bool cpu_ok() const {
    return st->cfg.use_cpu && ctx.node().cpu().cores() > 0;
  }
  bool gpu_ok() const {
    return st->cfg.use_gpu && ctx.node().gpu_count() > 0;
  }
};

/// One execution attempt chain for one block: launch on a device, race the
/// deadline, retry with backoff on the other device class on failure or
/// timeout; announce node failure when attempts are exhausted. Speculative
/// instances run a single attempt and never fail the node.
template <typename K, typename V>
sim::Process ft_block_attempt(std::shared_ptr<FtNodeState<K, V>> ns,
                              std::size_t bi, bool start_gpu,
                              bool speculative) {
  auto& sim = ns->ctx.sim();
  const FaultToleranceConfig& tol = ns->st->cfg.tolerance;
  const auto& spec = ns->ctx.spec();
  FatNode& node = ns->ctx.node();

  for (int attempt = 0;; ++attempt) {
    if (ns->blocks[bi].done || ns->ctl->aborted) co_return;
    if (attempt > 0) {
      if (speculative || attempt >= tol.max_task_attempts) break;
      ++ns->ctl->task_retries;
      auto backoff = sim::delay(
          sim, tol.backoff_base * std::pow(2.0, attempt - 1));
      co_await backoff;
      if (ns->blocks[bi].done || ns->ctl->aborted) co_return;
    }
    // Alternate device class per attempt (when both are available) so a
    // wedged device cannot absorb every retry.
    bool use_gpu = start_gpu;
    if (ns->cpu_ok() && ns->gpu_ok()) {
      use_gpu = (attempt % 2 == 0) ? start_gpu : !start_gpu;
    } else {
      use_gpu = ns->gpu_ok();
    }

    const InputSlice slice = ns->blocks[bi].slice;
    ns->emitters.emplace_back();
    Emitter<K, V>* em = &ns->emitters.back();
    const std::size_t em_idx = ns->emitters.size() - 1;
    ns->attempt_failed.push_back(false);
    bool* failed = &ns->attempt_failed.back();

    sim::Future<sim::Unit> op;
    double est = 0.0;
    double depth = 1.0;
    const auto& fn = map_fn(spec, ns->st->cfg.mode, use_gpu);
    if (!use_gpu) {
      simdev::CpuTask t = cpu_map_task(spec, slice);
      t.failed = failed;
      if (fn) t.body = [ns, fn, slice, em] { fn(slice, *em); };
      est = node.cpu().task_duration(t);
      depth = ns->cpu_depth;
      op = node.cpu().submit(std::move(t));
    } else {
      // Rotate card and stream with the attempt index so a retry escapes a
      // hung in-order stream instead of queueing behind it.
      const int cards = node.gpu_count();
      const int streams =
          std::max(1, ns->st->gpu_streams[static_cast<std::size_t>(
                           ns->ctx.rank)]);
      const int card = (ns->blocks[bi].card + attempt) % cards;
      const int stream_idx = (ns->blocks[bi].stream + attempt) % streams;
      auto& gpu = node.gpu(card);
      simdev::Stream& stream = gpu.stream(stream_idx);
      if (!spec.gpu_data_cached) {
        const double h2d = static_cast<double>(slice.size()) * spec.item_bytes;
        (void)stream.memcpy_h2d(h2d);
        if (gpu.spec().pcie_bandwidth > 0.0) {
          est += h2d / gpu.spec().pcie_bandwidth;
        }
      }
      simdev::KernelDesc k = gpu_map_kernel(spec, slice);
      k.failed = failed;
      if (fn) k.body = [ns, fn, slice, em] { fn(slice, *em); };
      est += gpu.kernel_duration(k);
      depth = ns->gpu_depth;
      op = stream.launch(std::move(k));
    }
    ++ns->st->map_tasks;

    const double deadline = std::max(
        tol.min_task_timeout, tol.task_timeout_factor * est * depth);
    auto timed = sim::with_timeout(sim, op, deadline);
    const bool finished = co_await timed;
    if (!finished || *failed) continue;  // timeout or injected task error

    auto& blk = ns->blocks[bi];
    if (blk.done) {
      // A backup (or retry) already won this block; drop the duplicate.
      ++ns->ctl->double_completions;
      co_return;
    }
    blk.done = true;
    blk.winner = em_idx;
    blk.winner_gpu = use_gpu;
    ns->durations.push_back(sim.now() - blk.started_at);
    ++ns->blocks_done;
    if (speculative) ++ns->ctl->speculative_wins;
    FtEvent ev;
    ev.kind = FtEvent::Kind::kBlockDone;
    ev.speculative = speculative;
    ns->events->send(ev);
    co_return;
  }
  if (!speculative) ft_announce_failure(*ns->ctl, ns->ctx.rank);
}

/// Straggler watchdog: every tick, compare in-flight blocks against the
/// median completed duration; past straggler_factor x median, launch one
/// backup attempt on the other device class (first result wins).
template <typename K, typename V>
sim::Process ft_straggler_ticker(std::shared_ptr<FtNodeState<K, V>> ns) {
  auto& sim = ns->ctx.sim();
  const FaultToleranceConfig& tol = ns->st->cfg.tolerance;
  for (;;) {
    auto tick = sim::delay(sim, tol.straggler_tick);
    co_await tick;
    if (!ns->map_active || ns->ctl->aborted) co_return;
    if (ns->durations.size() < tol.straggler_min_completed) continue;
    std::vector<double> d = ns->durations;
    const auto mid = d.size() / 2;
    std::nth_element(d.begin(), d.begin() + static_cast<long>(mid), d.end());
    const double limit = tol.straggler_factor * d[mid];
    for (std::size_t i = 0; i < ns->blocks.size(); ++i) {
      auto& blk = ns->blocks[i];
      if (blk.done || blk.speculated) continue;
      if (sim.now() - blk.started_at <= limit) continue;
      blk.speculated = true;
      ++ns->ctl->speculations;
      bool backup_gpu = !blk.prefer_gpu;
      if (!ns->gpu_ok()) backup_gpu = false;
      if (!ns->cpu_ok()) backup_gpu = true;
      if (ns->ctx.tr != nullptr) {
        ns->ctx.tr->instant(
            ns->ctx.runner_track, "ft.speculate", "fault",
            {obs::arg("block", static_cast<std::uint64_t>(i)),
             obs::arg("backup_gpu", backup_gpu)});
      }
      sim.spawn(ft_block_attempt(ns, i, backup_gpu, /*speculative=*/true));
    }
  }
}

/// Forwards the next (src, tag) message into the node's event loop so the
/// supervisor can keep listening for failure announcements while receiving.
template <typename K, typename V>
sim::Process ft_recv_pump(std::shared_ptr<FtNodeState<K, V>> ns, int src,
                          int tag) {
  auto& comm = ns->ctx.cluster->fabric().comm(ns->ctx.rank);
  auto r = comm.recv(src, tag);
  simnet::Message m = co_await r;
  FtEvent ev;
  ev.kind = FtEvent::Kind::kPeerMessage;
  ev.rank = src;
  ev.payload = std::move(m);
  ns->events->send(ev);
}

/// The fault-tolerant per-node supervisor: runs the same map -> combine ->
/// shuffle -> reduce -> gather pipeline, but every device operation races a
/// deadline, the map stage runs through retryable block attempts, and all
/// cross-node waits stay responsive to failure announcements.
template <typename K, typename V>
sim::Process ft_node_main(Cluster& cluster,
                          std::shared_ptr<JobState<K, V>> st,
                          std::shared_ptr<FtControl> ctl,
                          SchedulePolicy* policy, int rank,
                          std::vector<int> alive) {
  auto& sim = cluster.simulator();
  auto& comm = cluster.fabric().comm(rank);
  const auto& spec = *st->spec;
  const JobConfig& cfg = st->cfg;
  const FaultToleranceConfig& tol = cfg.tolerance;
  const auto rk = static_cast<std::size_t>(rank);
  const int tag_base = ctl->attempt * kAttemptTagStride;

  auto ns = std::make_shared<FtNodeState<K, V>>();
  ns->st = st;
  ns->ctl = ctl;
  ns->alive = alive;
  ns->tag_base = tag_base;
  ns->events = ctl->subs.at(rank);
  ns->ctx.cluster = &cluster;
  ns->ctx.st = st.get();
  ns->ctx.policy = policy;
  ns->ctx.rank = rank;

  obs::TraceRecorder* tr = sim.tracer();
  if (tr != nullptr && !tr->enabled()) tr = nullptr;
  obs::ScopedSpan job_span;
  if (tr != nullptr) {
    ns->ctx.tr = tr;
    ns->ctx.runner_track =
        tr->track("node" + std::to_string(rank), "runner");
    tr->instant(
        ns->ctx.runner_track, "ft.attempt", "fault",
        {obs::arg("attempt", static_cast<std::uint64_t>(ctl->attempt)),
         obs::arg("alive", static_cast<std::uint64_t>(alive.size())),
         obs::arg("p", st->cpu_fraction[rk])});
    job_span = obs::ScopedSpan(tr, ns->ctx.runner_track,
                               spec.name + ":job", "job");
  }

  const double phase_t0 = sim.now();

  // -- job startup (charged per attempt: a restart is a resubmission) --------
  if (cfg.charge_job_startup) {
    auto startup = sim::delay(sim, calib::kPrsJobStartup);
    co_await startup;
  }

  // -- optional input distribution over the (reliable) fabric ----------------
  std::size_t node_items = 0;
  for (const auto& p : st->node_partitions[rk]) node_items += p.size();
  if (cfg.time_input_distribution && alive.size() > 1) {
    if (rank == 0) {
      for (int dst : alive) {
        if (dst == 0) continue;
        std::size_t dst_items = 0;
        for (const auto& p :
             st->node_partitions[static_cast<std::size_t>(dst)]) {
          dst_items += p.size();
        }
        simnet::Message m{static_cast<double>(dst_items) * spec.item_bytes,
                          {}};
        comm.send(dst, tag_base + kDistributeTag, std::move(m));
      }
    } else {
      ctl->expecting[rk][0] = 1;
      auto r = comm.recv(0, tag_base + kDistributeTag);
      (void)co_await r;
      ctl->expecting[rk][0] = 0;
      ctl->got[rk][0] = 1;
    }
  }

  st->startup_time = std::max(st->startup_time, sim.now() - phase_t0);
  if (tr != nullptr && sim.now() > phase_t0) {
    tr->complete(ns->ctx.runner_track, "startup", "phase", phase_t0,
                 sim.now());
  }
  const double map_t0 = sim.now();

  // -- map stage: retryable block attempts ------------------------------------
  // Block granularity honours the policy: static dispatch splits each
  // partition CPU/GPU by p (multiplier x cores CPU blocks, one GPU block
  // per card x stream); dynamic dispatch chops into block_items-sized
  // blocks, the first p share starting on CPU.
  const double p = st->cpu_fraction[rk];
  const int cards = ns->gpu_ok() ? ns->ctx.node().gpu_count() : 0;
  const int streams = std::max(1, st->gpu_streams[rk]);
  const JobShape shape = job_shape(spec);
  const MapStage<K, V> planner(ns->ctx);
  for (const InputSlice& partition : st->node_partitions[rk]) {
    if (partition.empty()) continue;
    auto dispatch_pause = sim::delay(sim, calib::kPrsIterationOverhead);
    co_await dispatch_pause;
    std::size_t first = ns->blocks.size();
    if (policy->dispatch() == SchedulingMode::kStatic) {
      const auto plan = planner.plan_static(partition);
      for (const InputSlice& b : plan.cpu_blocks) {
        typename FtNodeState<K, V>::Block blk;
        blk.slice = b;
        ns->blocks.push_back(blk);
      }
      for (const auto& gb : plan.gpu_blocks) {
        typename FtNodeState<K, V>::Block blk;
        blk.slice = gb.slice;
        blk.prefer_gpu = true;
        blk.card = gb.card;
        blk.stream = gb.stream;
        ns->blocks.push_back(blk);
      }
    } else {
      const std::size_t block_items = policy->block_items(
          cluster, shape, cfg, rank, partition.size());
      auto list = partition.blocks_of(block_items);
      const auto cpu_count = static_cast<std::size_t>(
          static_cast<double>(list.size()) * (cards > 0 ? p : 1.0) + 0.5);
      std::size_t g = 0;
      for (std::size_t i = 0; i < list.size(); ++i) {
        typename FtNodeState<K, V>::Block blk;
        blk.slice = list[i];
        if (i >= cpu_count && cards > 0) {
          blk.prefer_gpu = true;
          blk.card = static_cast<int>(g % static_cast<std::size_t>(cards));
          blk.stream = static_cast<int>(
              (g / static_cast<std::size_t>(cards)) %
              static_cast<std::size_t>(streams));
          ++g;
        }
        ns->blocks.push_back(blk);
      }
    }
    const auto n_new = ns->blocks.size() - first;
    auto dispatch_cost = sim::delay(
        sim, static_cast<double>(n_new) * calib::kPrsTaskDispatch);
    co_await dispatch_cost;
    for (std::size_t i = first; i < ns->blocks.size(); ++i) {
      ns->blocks[i].started_at = sim.now();
      sim.spawn(ft_block_attempt(ns, i, ns->blocks[i].prefer_gpu,
                                 /*speculative=*/false));
    }
  }
  // Queueing depth per class, for the per-attempt deadlines.
  {
    double cpu_blocks = 0.0, gpu_blocks = 0.0;
    for (const auto& b : ns->blocks) (b.prefer_gpu ? gpu_blocks : cpu_blocks) += 1.0;
    const int cores = std::max(1, ns->ctx.node().cpu().cores());
    ns->cpu_depth = std::max(
        1.0, std::ceil(cpu_blocks / static_cast<double>(cores)));
    const int gpu_slots = std::max(1, cards * streams);
    ns->gpu_depth = std::max(
        1.0, std::ceil(gpu_blocks / static_cast<double>(gpu_slots)));
  }
  if (tol.speculation && !ns->blocks.empty()) {
    sim.spawn(ft_straggler_ticker(ns));
  }

  while (ns->blocks_done < ns->blocks.size()) {
    auto ev = co_await ns->events->recv();
    if (!ev) co_return;  // channel torn down (job abandoned)
    if (ev->kind == FtEvent::Kind::kNodeFailed) {
      ns->map_active = false;
      co_return;
    }
    // kBlockDone: progress is tracked in ns->blocks_done by the attempts.
  }
  ns->map_active = false;

  // -- GPU intermediate copy-back (winners only), with a deadline ------------
  NodeMapBatch<K, V> batch;
  for (auto& blk : ns->blocks) {
    if (blk.winner_gpu) {
      batch.gpu_pairs += ns->emitters[blk.winner].size();
      batch.gpu_items += blk.slice.size();
    }
    batch.emitters.push_back(std::move(ns->emitters[blk.winner]));
  }
  {
    const double d2h_bytes =
        static_cast<double>(batch.gpu_pairs) * spec.pair_bytes +
        static_cast<double>(batch.gpu_items) * spec.gpu_item_d2h_bytes;
    if (d2h_bytes > 0.0 && cards > 0) {
      const double per_card = d2h_bytes / static_cast<double>(cards);
      for (int g = 0; g < cards; ++g) {
        auto& gpu = ns->ctx.node().gpu(g);
        auto copy = gpu.default_stream().memcpy_d2h(per_card);
        double est = tol.min_task_timeout;
        if (gpu.spec().pcie_bandwidth > 0.0) {
          est = std::max(est, per_card / gpu.spec().pcie_bandwidth);
        }
        auto timed = sim::with_timeout(
            sim, copy, tol.task_timeout_factor * est);
        const bool ok = co_await timed;
        if (!ok && tr != nullptr) {
          // Hung card: the winning pairs already live host-side (device
          // bodies run on the host), so proceed without the transfer.
          tr->instant(ns->ctx.runner_track, "ft.copyback_timeout", "fault",
                      {obs::arg("card", static_cast<std::uint64_t>(
                                    static_cast<unsigned>(g)))});
        }
        if (ns->ctl->aborted) co_return;
      }
    }
  }
  auto merge_cost = sim::delay(
      sim, static_cast<double>(node_items) * calib::kPrsPerItemOverhead);
  co_await merge_cost;
  st->map_time = std::max(st->map_time, sim.now() - map_t0);
  if (tr != nullptr) {
    tr->complete(
        ns->ctx.runner_track, "map", "phase", map_t0, sim.now(),
        {obs::arg("items", static_cast<std::uint64_t>(node_items)),
         obs::arg("gpu_items", batch.gpu_items),
         obs::arg("blocks", static_cast<std::uint64_t>(ns->blocks.size()))});
  }

  // -- local combine + shuffle over the alive set -----------------------------
  // Keys hash onto alive-set positions only, so a blacklisted node is never
  // chosen as a reduce destination.
  auto outbound =
      ShuffleStage<K, V>(ns->ctx).prepare(batch, ns->alive.size());
  const double shuffle_t0 = sim.now();
  // Collect inbound buckets keyed by source rank, not in arrival order: the
  // fast path combines the all_to_all result rank-by-rank, and floating-point
  // reduce combines are order-sensitive, so a fault-free run through this
  // path must merge in the same order to stay byte-identical (the checkpoint
  // crash-matrix asserts exactly that).
  std::map<int, simnet::Message> inbound_by_src;
  std::size_t self_pos = 0;
  for (std::size_t i = 0; i < ns->alive.size(); ++i) {
    if (ns->alive[i] == rank) self_pos = i;
  }
  for (std::size_t i = 0; i < ns->alive.size(); ++i) {
    const int peer = ns->alive[i];
    if (peer == rank) continue;
    ctl->expecting[rk][static_cast<std::size_t>(peer)] = 1;
    comm.send(peer, tag_base + kShuffleTag, std::move(outbound[i]));
    sim.spawn(ft_recv_pump(ns, peer, tag_base + kShuffleTag));
  }
  inbound_by_src.emplace(rank, std::move(outbound[self_pos]));
  std::size_t want = ns->alive.size() - 1;
  while (want > 0) {
    auto ev = co_await ns->events->recv();
    if (!ev) co_return;
    if (ev->kind == FtEvent::Kind::kNodeFailed) co_return;
    if (ev->kind != FtEvent::Kind::kPeerMessage) continue;  // late winner
    const auto src = static_cast<std::size_t>(ev->rank);
    ctl->expecting[rk][src] = 0;
    ctl->got[rk][src] = 1;
    inbound_by_src.emplace(ev->rank, std::move(ev->payload));
    --want;
  }
  st->shuffle_time = std::max(st->shuffle_time, sim.now() - shuffle_t0);
  if (tr != nullptr) {
    tr->complete(ns->ctx.runner_track, "shuffle", "phase", shuffle_t0,
                 sim.now());
  }

  // -- reduce, with a deadline and a CPU-retiming fallback --------------------
  const double reduce_t0 = sim.now();
  std::vector<simnet::Message> inbound;
  for (auto& [src, m] : inbound_by_src) inbound.push_back(std::move(m));
  std::size_t reduce_pairs = 0;
  ReduceStage<K, V> reduce(ns->ctx);
  PairRun<K, V> reduced = reduce.merge(inbound, reduce_pairs);
  for (int round = 0; round < 2; ++round) {
    double est = 0.0;
    std::vector<sim::Future<sim::Unit>> futs;
    if (round == 0) {
      futs = reduce.submit_device_tasks(reduce_pairs, &est);
    } else if (ns->cpu_ok() && reduce_pairs > 0) {
      // Fallback: re-time the whole reduce on the CPU (the merge itself is
      // host-side and already done, so this is idempotent).
      simdev::CpuTask t =
          reduce_cpu_task(spec, static_cast<double>(reduce_pairs));
      est = ns->ctx.node().cpu().task_duration(t);
      futs.push_back(ns->ctx.node().cpu().submit(std::move(t)));
      ++st->reduce_tasks;
    }
    if (futs.empty()) break;
    auto all = sim::when_all(sim, futs);
    auto timed = sim::with_timeout(
        sim, all,
        std::max(tol.min_task_timeout, tol.task_timeout_factor * est));
    const bool ok = co_await timed;
    if (ns->ctl->aborted) co_return;
    if (ok) break;
    if (round == 0) {
      ++ctl->task_retries;
      if (tr != nullptr) {
        tr->instant(ns->ctx.runner_track, "ft.reduce_retry", "fault");
      }
      continue;
    }
    ft_announce_failure(*ctl, rank);
    co_return;
  }
  st->reduce_time = std::max(st->reduce_time, sim.now() - reduce_t0);
  if (tr != nullptr) {
    tr->complete(
        ns->ctx.runner_track, "reduce", "phase", reduce_t0, sim.now(),
        {obs::arg("pairs", static_cast<std::uint64_t>(reduce_pairs))});
  }

  // -- gather final values on the master --------------------------------------
  const double gather_t0 = sim.now();
  GatherStage<K, V> gather(ns->ctx);
  simnet::Message mine = gather.pack(std::move(reduced));
  if (rank == 0) {
    std::map<int, simnet::Message> by_rank;
    for (int peer : ns->alive) {
      if (peer == 0) continue;
      ctl->expecting[rk][static_cast<std::size_t>(peer)] = 1;
      sim.spawn(ft_recv_pump(ns, peer, tag_base + kGatherTag));
    }
    std::size_t pending = ns->alive.size() - 1;
    while (pending > 0) {
      auto ev = co_await ns->events->recv();
      if (!ev) co_return;
      if (ev->kind == FtEvent::Kind::kNodeFailed) co_return;
      if (ev->kind != FtEvent::Kind::kPeerMessage) continue;
      const auto src = static_cast<std::size_t>(ev->rank);
      ctl->expecting[rk][src] = 0;
      ctl->got[rk][src] = 1;
      by_rank.emplace(ev->rank, std::move(ev->payload));
      --pending;
    }
    std::vector<simnet::Message> gathered;
    gathered.push_back(std::move(mine));
    for (auto& [r, m] : by_rank) gathered.push_back(std::move(m));
    gather.unpack_on_master(gathered);
    ctl->finish_time = sim.now();
  } else {
    comm.send(0, tag_base + kGatherTag, std::move(mine));
  }
  gather.finish(gather_t0);

  ns->ctx.node().region().clear();
  ctl->node_done[rk] = 1;
  ++st->nodes_done;
}

/// Runs one job on the fault-tolerant path: installs the injector's hooks,
/// runs job attempts until one succeeds, blacklisting failed nodes and
/// re-splitting their partitions across the survivors in between.
template <typename K, typename V>
JobResult<K, V> run_job_tolerant(Cluster& cluster,
                                 const MapReduceSpec<K, V>& spec,
                                 const JobConfig& cfg, std::size_t n_items,
                                 SchedulePolicy* policy) {
  auto& sim = cluster.simulator();
  fault::FaultInjector* inj = cfg.faults;
  cluster.set_fault_hooks(inj, inj);
  const int nodes = cluster.size();
  const double t0 = sim.now();
  const ClusterCounters counters0 = snapshot_counters(cluster);
  const std::uint64_t retrans0 = cluster.fabric().retransmits();

  std::vector<char> alive_mask(static_cast<std::size_t>(nodes), 1);
  // Nodes the caller already knows are dead (run_iterative after a recovered
  // crash) start excluded; they were counted in blacklisted_nodes when first
  // detected, so they do not bump the counter again here.
  for (int r : cfg.presumed_dead) {
    PRS_REQUIRE(r != 0, "master (rank 0) cannot be presumed dead");
    if (r > 0 && r < nodes) alive_mask[static_cast<std::size_t>(r)] = 0;
  }
  int blacklisted = 0;
  std::uint64_t retries = 0, speculations = 0, spec_wins = 0, doubles = 0;

  std::shared_ptr<JobState<K, V>> st;
  std::shared_ptr<FtControl> ctl;
  bool success = false;
  int attempts_used = 0;

  for (int attempt = 0;
       attempt < cfg.tolerance.max_job_attempts && !success; ++attempt) {
    attempts_used = attempt + 1;
    std::vector<int> alive;
    for (int r = 0; r < nodes; ++r) {
      if (alive_mask[static_cast<std::size_t>(r)]) alive.push_back(r);
    }

    st = make_job_state(cluster, spec, cfg, n_items, policy, alive);
    ctl = std::make_shared<FtControl>(nodes);
    ctl->attempt = attempt;
    for (int r : alive) {
      ctl->subs[r] = std::make_shared<sim::Channel<FtEvent>>(sim);
    }
    for (int r : alive) {
      sim.spawn(ft_node_main<K, V>(cluster, st, ctl, policy, r, alive));
    }
    sim.run();

    retries += ctl->task_retries;
    speculations += ctl->speculations;
    spec_wins += ctl->speculative_wins;
    doubles += ctl->double_completions;

    bool all_done = true;
    for (int r : alive) {
      all_done = all_done && ctl->node_done[static_cast<std::size_t>(r)];
    }
    success = !ctl->aborted && all_done;
    if (success) break;

    // Post-mortem: who failed? Announced failures first; otherwise diagnose
    // the silent stall from the message bookkeeping.
    std::set<int> failed(ctl->failed_ranks.begin(),
                         ctl->failed_ranks.end());
    if (failed.empty()) {
      std::set<int> stalled;
      for (int r : alive) {
        if (!ctl->node_done[static_cast<std::size_t>(r)]) stalled.insert(r);
      }
      // Finished nodes that still owe a stalled node data (crashed after
      // declaring itself done, e.g. mid-gather-send).
      for (int r : stalled) {
        for (int s : alive) {
          if (ctl->expecting[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(s)] &&
              stalled.count(s) == 0) {
            failed.insert(s);
          }
        }
      }
      if (failed.empty()) {
        // Stalled nodes nobody heard from this attempt: they stopped
        // sending (crashed) while everyone else exchanged data normally.
        for (int s : stalled) {
          if (s == 0) continue;
          bool heard = false;
          for (int r : stalled) {
            if (r != s && ctl->got[static_cast<std::size_t>(r)]
                                  [static_cast<std::size_t>(s)]) {
              heard = true;
            }
          }
          if (!heard) failed.insert(s);
        }
      }
      if (failed.empty()) {
        for (int s : stalled) {
          if (s != 0) failed.insert(s);
        }
      }
    }
    PRS_CHECK(!failed.empty(), "job attempt failed with no suspect node");
    PRS_REQUIRE(failed.count(0) == 0,
                "master (rank 0) failed; cannot recover");
    for (int r : failed) {
      if (alive_mask[static_cast<std::size_t>(r)]) {
        alive_mask[static_cast<std::size_t>(r)] = 0;
        ++blacklisted;
      }
    }
    obs::TraceRecorder* tr = sim.tracer();
    if (tr != nullptr && tr->enabled()) {
      for (int r : failed) {
        tr->instant(tr->track("fault", "injector"), "ft.blacklist", "fault",
                    {obs::arg("node", static_cast<std::uint64_t>(
                                  static_cast<unsigned>(r)))});
      }
      tr->metrics().counter("fault.blacklisted_nodes")
          .add(static_cast<double>(failed.size()));
    }
  }
  PRS_CHECK(success, "job failed after max_job_attempts");

  // Elapsed spans failed attempts but stops at the master's completion —
  // the post-success drain (straggler losers timing out) is not charged.
  const double elapsed = ctl->finish_time - t0;
  JobResult<K, V> result;
  result.output = std::move(st->final_output);
  result.stats = collect_stats(cluster, counters0, *st, elapsed);
  // Fold the fault-tolerance counters in through the shared field visitor
  // (JobStats::accumulate) instead of assigning one-by-one, so a counter
  // added to JobStats cannot be silently dropped here.
  JobStats ft_counters;
  ft_counters.iterations = 0;  // neutralize the default-1 field
  ft_counters.task_retries = retries;
  ft_counters.speculations = speculations;
  ft_counters.speculative_wins = spec_wins;
  ft_counters.double_completions = doubles;
  ft_counters.retransmits = cluster.fabric().retransmits() - retrans0;
  ft_counters.blacklisted_nodes = blacklisted;
  ft_counters.job_attempts = attempts_used - 1;  // collect_stats seeded 1
  result.stats.accumulate(ft_counters);

  policy->observe(collect_feedback(cluster, counters0, st->cpu_fraction,
                                   elapsed));
  record_job_metrics(sim, *st, elapsed);
  obs::TraceRecorder* tr = sim.tracer();
  if (tr != nullptr && tr->enabled()) {
    auto& m = tr->metrics();
    m.counter("fault.task_retries").add(static_cast<double>(retries));
    m.counter("fault.speculations")
        .add(static_cast<double>(speculations));
    m.counter("fault.speculative_wins")
        .add(static_cast<double>(spec_wins));
    m.counter("fault.double_completions")
        .add(static_cast<double>(doubles));
    m.counter("fault.retransmits")
        .add(static_cast<double>(result.stats.retransmits));
  }
  cluster.set_fault_hooks(nullptr, nullptr);
  return result;
}

}  // namespace detail
}  // namespace prs::core
