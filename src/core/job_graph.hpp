// The execution engine of PRS jobs: one task graph per job.
//
// One TaskGraph instance expresses a whole job: the per-node spine
// start -> map rounds -> merge -> shuffle -> reduce -> gather, with the
// stage objects from core/pipeline.hpp acting as graph builders. A map
// round is one partition's sub-task scheduler round (§III.B.2):
//   * static: a dispatch node charging the serial enqueue cost, then one
//     node per planned CPU/GPU block (plan_blocks);
//   * dynamic: one node that charges the round's overhead, spawns the
//     block-polling daemons (MapStage::start_dynamic) and completes when
//     they drained the partition.
// Rounds chain serially per node; a static round's blocks do not gate the
// next round, so blocks of both partitions run side by side.
//
// Two copy-back shapes:
//   * depth 1: GPU intermediates copied back in bulk after the last map
//     block (MapStage::copy_back), the paper's §III.A.2 schedule.
//   * depth >= 2 (overlap): each static GPU block gets its own D2H node on
//     the card's dedicated copy stream, dependent only on that block's
//     kernel; on devices with more than one hardware queue the copy-back
//     engine runs beside the remaining compute (Fermi-class 1-queue
//     devices serialize either way and lose nothing). Dynamic blocks do
//     not exist when the graph is built, so dynamic jobs keep the bulk
//     copy-back at every depth.
//
// Failure semantics: a functional map/reduce payload that throws is caught
// by a body wrapper that records the failing node in the GraphExecutor
// (cancelling every not-yet-dispatched node) and rethrows — the error
// surfaces out of sim.run() at the failing block's completion time, before
// the stage barrier, wrapped with the graph-node name.
//
// Faulted jobs (JobConfig::faults; DESIGN.md §4e) build the same spine over
// the alive nodes, and its nodes take a faulted form: every partition is
// planned into blocks up front, each block node runs an attempt chain, a
// watchdog node per fat node launches speculative duplicates, merge and
// reduce run under deadlines, and shuffle and gather exchange over the
// alive set. A node that runs out of attempts fails the graph; the job
// then restarts over the survivors (run_job_graph).
//
// NOTE (GCC 12): all co_await sites follow the named-temporary rule
// documented in simtime/process.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/injector.hpp"
#include "graph/executor.hpp"
#include "graph/task_graph.hpp"
#include "simtime/task.hpp"

namespace prs::core {
namespace detail {

// The attempt policy of faulted jobs. A job gets kMaxJobAttempts attempts,
// each in its own tag space (attempt x kAttemptTagStride); a map block gets
// kMaxTaskAttempts, the retries kRetryBackoff apart, doubling. A device
// operation's deadline is kTaskTimeoutFactor x its modeled duration (x the
// queue depth for map blocks), at least kMinTaskTimeout. Every
// kStragglerTick, once kStragglerMinCompleted blocks finished, a block
// running past kStragglerFactor x their median gets a speculative copy.
inline constexpr int kMaxJobAttempts = 3;
inline constexpr int kAttemptTagStride = 1 << 16;
inline constexpr int kMaxTaskAttempts = 4;
inline constexpr double kRetryBackoff = 250e-6;
inline constexpr double kTaskTimeoutFactor = 8.0;
inline constexpr double kMinTaskTimeout = 1e-3;
inline constexpr double kStragglerTick = 500e-6;
inline constexpr std::size_t kStragglerMinCompleted = 3;
inline constexpr double kStragglerFactor = 2.5;

/// One attempt of a faulted job, shared by its nodes, their speculative
/// copies and their receives. The post-mortem reads who was lost, who
/// finished, and the ledger of who awaits or heard from whom.
struct FaultedAttempt {
  std::vector<int> alive;  // ascending
  JobStats* counters = nullptr;  // the job's, across its attempts
  /// Set once the attempt's simulation drained: a message that lands on a
  /// receive it left behind wakes nothing.
  bool over = false;
  double finish_time = -1.0;  // the master's gather completion
  std::set<int> lost;         // nodes that ran out of attempts
  std::set<int> done;         // nodes that finished their gather node
  // (r, s): r still awaits a message from s in its current exchange
  // (expecting), or heard from s in this attempt (got).
  std::set<std::pair<int, int>> expecting;
  std::set<std::pair<int, int>> got;
};

/// The messages of one faulted exchange, keyed by source rank; `all`
/// resolves when `left` reaches zero.
struct FaultedInbox {
  FaultedInbox(sim::Simulator& sim, std::size_t peers)
      : left(peers), all(sim) {}
  std::map<int, simnet::Message> by_src;
  std::size_t left;
  sim::Promise<sim::Unit> all;
};

/// One receive of a faulted exchange, noted in the ledger as it lands.
inline sim::Process ft_receive(simnet::Communicator& comm,
                               std::shared_ptr<FaultedAttempt> ft,
                               std::shared_ptr<FaultedInbox> box, int src,
                               int tag) {
  auto r = comm.recv(src, tag);
  simnet::Message m = co_await r;
  if (ft->over) co_return;
  ft->expecting.erase({comm.rank(), src});
  ft->got.insert({comm.rank(), src});
  box->by_src.emplace(src, std::move(m));
  if (--box->left == 0) box->all.set_value(sim::Unit{});
}

/// One planned map block: a static block, or any block of a faulted job,
/// which also keeps the state of its attempts.
template <typename K, typename V>
struct MapBlock {
  InputSlice slice;
  bool gpu = false;  // planned for (faulted: preferring) the GPU
  int card = 0;
  int stream = 0;
  std::string name;  // graph node
  Emitter<K, V>* emitter = nullptr;  // bound when a static GPU kernel runs
  // Faulted jobs: the first attempt to finish wins the block.
  bool done = false;
  bool speculated = false;
  double started_at = 0.0;
  std::size_t winner = 0;  // index into the node's attempts
  bool winner_gpu = false;
  std::optional<sim::Promise<sim::Unit>> node_done;
};

/// One attempt of a faulted map block: its own emitter and fail flag (the
/// losers' pairs are discarded).
template <typename K, typename V>
struct MapAttempt {
  Emitter<K, V> emitter;
  bool failed = false;
};

/// Per-rank execution state of one graph job: the stage objects plus the
/// transient values the stage nodes hand to each other.
template <typename K, typename V>
struct GraphRankState {
  StageContext<K, V> ctx;
  std::optional<MapStage<K, V>> map;
  std::optional<ShuffleStage<K, V>> shuffle;
  std::optional<ReduceStage<K, V>> reduce;
  std::optional<GatherStage<K, V>> gather;
  std::vector<int> ranks;  // the ranks the job runs on, ascending
  std::string name;        // node-name prefix, e.g. "n2:"
  std::shared_ptr<GraphFailBox> fail;
  int tag_base = 0;
  double phase_t0 = 0.0;
  double map_t0 = 0.0;
  std::size_t node_items = 0;
  std::vector<MapBlock<K, V>> blocks;
  std::vector<simnet::Message> inbound;
  PairRun<K, V> reduced;
  std::size_t reduce_pairs = 0;
  // Faulted jobs only (`ft` is null otherwise).
  std::shared_ptr<FaultedAttempt> ft;
  std::deque<MapAttempt<K, V>> attempts;  // stable addresses for bodies
  std::vector<double> durations;          // of the blocks won so far
  bool map_active = true;                 // until the merge node starts
  // Blocks per execution slot, folded into the map deadlines.
  double cpu_depth = 1.0;
  double gpu_depth = 1.0;

  bool cpu_ok() const {
    return ctx.st->cfg.use_cpu && ctx.node().cpu().cores() > 0;
  }
  bool gpu_ok() const {
    return ctx.st->cfg.use_gpu && ctx.node().gpu_count() > 0;
  }
  int cards() const { return gpu_ok() ? ctx.node().gpu_count() : 0; }
  int streams() const { return std::max(1, ctx.st->gpu_streams[ctx.rk()]); }
  bool aborted() const { return fail->exec->failed(); }
  simnet::Communicator& comm() const {
    return ctx.cluster->fabric().comm(ctx.rank);
  }
  /// This node ran out of attempts in graph node `node`: the graph fails
  /// (so nothing new starts), and the post-mortem blacklists the node.
  void lose(const std::string& node) {
    ft->lost.insert(ctx.rank);
    fail->exec->fail(std::make_exception_ptr(Error(
                         name + " ran out of attempts")),
                     node);
  }
};

/// One job's worth of graph state.
template <typename K, typename V>
struct GraphJob {
  std::shared_ptr<JobState<K, V>> st;
  std::shared_ptr<FaultedAttempt> ft;  // faulted jobs only
  std::vector<std::unique_ptr<GraphRankState<K, V>>> ranks;
};

/// A faulted exchange: one ledgered receive per rank in `from`; returns
/// `mine` and the received messages in rank order.
template <typename K, typename V>
sim::Task<std::vector<simnet::Message>> ft_collect(GraphRankState<K, V>* rs,
                                                   std::vector<int> from,
                                                   simnet::Message mine,
                                                   int tag) {
  auto box = std::make_shared<FaultedInbox>(rs->ctx.sim(), from.size());
  box->by_src.emplace(rs->ctx.rank, std::move(mine));
  for (int src : from) {
    rs->ft->expecting.insert({rs->ctx.rank, src});
    rs->ctx.sim().spawn(ft_receive(rs->comm(), rs->ft, box, src, tag));
  }
  if (box->left > 0) {
    auto all = box->all.get_future();
    co_await all;
  }
  std::vector<simnet::Message> in;
  for (auto& [src, m] : box->by_src) in.push_back(std::move(m));
  co_return in;
}

// -- graph node coroutines ----------------------------------------------------
// Free coroutine functions taking their context by value/pointer: the
// graph stores plain forwarding lambdas, so no coroutine frame ever
// references a lambda object (the classic captured-lambda-coroutine
// lifetime bug).

template <typename K, typename V>
sim::Process g_startup(GraphRankState<K, V>* rs,
                       sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto& st = *rs->ctx.st;
  const JobConfig& cfg = st.cfg;
  rs->phase_t0 = sim.now();
  if (cfg.charge_job_startup) {
    auto d = sim::delay(sim, calib::kPrsJobStartup);
    co_await d;
  }
  const auto& spec = rs->ctx.spec();
  const int tag = kDistributeTag + rs->tag_base;
  if (cfg.time_input_distribution && rs->ranks.size() > 1) {
    if (rs->ctx.rank == 0) {
      for (int dst : rs->ranks) {
        if (dst == 0) continue;
        std::size_t dst_items = 0;
        for (const auto& p :
             st.node_partitions[static_cast<std::size_t>(dst)]) {
          dst_items += p.size();
        }
        simnet::Message m{static_cast<double>(dst_items) * spec.item_bytes,
                          {}};
        rs->comm().send(dst, tag, std::move(m));
      }
    } else if (rs->ft != nullptr) {
      auto in = ft_collect(rs, {0}, {}, tag);
      (void)co_await in;
    } else {
      auto r = rs->comm().recv(0, tag);
      (void)co_await r;
    }
  }
  st.startup_time = std::max(st.startup_time, sim.now() - rs->phase_t0);
  if (rs->ctx.tr != nullptr && sim.now() > rs->phase_t0) {
    rs->ctx.tr->complete(rs->ctx.runner_track, "startup", "phase",
                         rs->phase_t0, sim.now());
  }
  rs->map_t0 = sim.now();
  done.set_value(sim::Unit{});
}

/// Static (or faulted) sub-task scheduler round: the round's overhead,
/// then the serial cost of enqueueing the partition's blocks, which the
/// block nodes depend on. A faulted node's last round publishes the queue
/// depths that size its map deadlines; blocks dispatched earlier run their
/// first attempt with depth 1.
template <typename K, typename V>
sim::Process g_dispatch(GraphRankState<K, V>* rs, double enqueue_cost,
                        bool last_round, sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto d1 = sim::delay(sim, calib::kPrsIterationOverhead);
  co_await d1;
  auto d2 = sim::delay(sim, enqueue_cost);
  co_await d2;
  if (rs->ft != nullptr && last_round) {
    double cpu_blocks = 0.0;
    double gpu_blocks = 0.0;
    for (const auto& b : rs->blocks) (b.gpu ? gpu_blocks : cpu_blocks) += 1.0;
    const int cores = std::max(1, rs->ctx.node().cpu().cores());
    const int slots = std::max(1, rs->cards() * rs->streams());
    rs->cpu_depth = std::max(1.0, std::ceil(cpu_blocks / cores));
    rs->gpu_depth = std::max(1.0, std::ceil(gpu_blocks / slots));
  }
  done.set_value(sim::Unit{});
}

/// Dynamic sub-task scheduler round: the round's overhead, then idle
/// daemons poll the partition's blocks until it is drained; the dispatch
/// cost is charged per block as it is handed out.
template <typename K, typename V>
sim::Process g_dynamic_round(GraphRankState<K, V>* rs, InputSlice partition,
                             std::string node_name,
                             sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto d = sim::delay(sim, calib::kPrsIterationOverhead);
  co_await d;
  auto drained =
      rs->map->start_dynamic(partition, rs->fail, std::move(node_name));
  co_await drained;
  done.set_value(sim::Unit{});
}

template <typename K, typename V>
sim::Process g_cpu_block(GraphRankState<K, V>* rs, std::size_t bi,
                         sim::Promise<sim::Unit> done) {
  auto& st = *rs->ctx.st;
  const MapBlock<K, V>& blk = rs->blocks[bi];
  simdev::CpuTask t =
      make_cpu_map_task(st, rs->map->batch(), blk.slice, rs->fail, blk.name);
  ++st.map_tasks;
  auto fut = rs->ctx.node().cpu().submit(std::move(t));
  co_await fut;
  done.set_value(sim::Unit{});
}

/// GPU block: stages input (when not cached) and launches the kernel on
/// the planned (card, stream); the stream is an in-order queue, so
/// awaiting the kernel covers the staging copy too.
template <typename K, typename V>
sim::Process g_gpu_block(GraphRankState<K, V>* rs, std::size_t bi,
                         sim::Promise<sim::Unit> done) {
  auto& st = *rs->ctx.st;
  const auto& spec = rs->ctx.spec();
  MapBlock<K, V>& blk = rs->blocks[bi];
  simdev::Stream& stream = rs->ctx.node().gpu(blk.card).stream(blk.stream);
  if (!spec.gpu_data_cached) {
    stream.memcpy_h2d(static_cast<double>(blk.slice.size()) *
                      spec.item_bytes);
  }
  simdev::KernelDesc k =
      make_gpu_map_kernel(st, rs->map->batch(), blk.slice, rs->fail, blk.name);
  blk.emitter = &rs->map->batch().emitters.back();
  rs->map->batch().gpu_items += blk.slice.size();
  ++st.map_tasks;
  auto fut = stream.launch(std::move(k));
  co_await fut;
  done.set_value(sim::Unit{});
}

/// Overlap mode: one D2H copy per GPU block, on the card's dedicated copy
/// stream (index = the compute stream count), dependent only on its own
/// kernel — PCI-E copy-back runs beside the remaining compute instead of
/// waiting for the stage barrier.
template <typename K, typename V>
sim::Process g_block_d2h(GraphRankState<K, V>* rs, std::size_t bi,
                         sim::Promise<sim::Unit> done) {
  const auto& spec = rs->ctx.spec();
  const MapBlock<K, V>& blk = rs->blocks[bi];
  const double pairs =
      blk.emitter != nullptr ? static_cast<double>(blk.emitter->size()) : 0.0;
  const double bytes =
      pairs * spec.pair_bytes +
      static_cast<double>(blk.slice.size()) * spec.gpu_item_d2h_bytes;
  if (bytes <= 0.0) {
    done.set_value(sim::Unit{});
    co_return;
  }
  const int copy_stream = rs->ctx.st->gpu_streams[rs->ctx.rk()];
  simdev::Stream& cs = rs->ctx.node().gpu(blk.card).stream(copy_stream);
  auto fut = cs.memcpy_d2h(bytes);
  co_await fut;
  done.set_value(sim::Unit{});
}

/// A faulted block's attempt chain: launch on a device and race the
/// deadline; after a failure or timeout, back off and retry on the other
/// device class (rotating card and stream, so a retry escapes a hung
/// in-order stream). The first attempt to finish wins the block and
/// completes its node. The block node runs the chain; a speculative copy
/// runs one attempt and never loses the node.
template <typename K, typename V>
sim::Process ft_attempts(GraphRankState<K, V>* rs, std::size_t bi,
                         bool start_gpu, bool speculative) {
  auto& sim = rs->ctx.sim();
  const auto& spec = rs->ctx.spec();
  JobState<K, V>& st = *rs->ctx.st;
  FatNode& node = rs->ctx.node();
  MapBlock<K, V>& blk = rs->blocks[bi];
  for (int attempt = 0;; ++attempt) {
    if (blk.done || rs->aborted()) co_return;
    if (attempt > 0) {
      if (speculative || attempt >= kMaxTaskAttempts) break;
      ++rs->ft->counters->task_retries;
      auto backoff =
          sim::delay(sim, kRetryBackoff * std::pow(2.0, attempt - 1));
      co_await backoff;
      if (blk.done || rs->aborted()) co_return;
    }
    bool use_gpu = rs->gpu_ok();
    if (rs->cpu_ok() && rs->gpu_ok()) {
      use_gpu = (attempt % 2 == 0) ? start_gpu : !start_gpu;
    }
    rs->attempts.emplace_back();
    const std::size_t ai = rs->attempts.size() - 1;
    MapAttempt<K, V>* at = &rs->attempts.back();
    std::function<void()> body;
    if (const auto& fn = map_fn(spec, st.cfg.mode, use_gpu)) {
      body = graph_wrap_body(
          [fn, slice = blk.slice, at] { fn(slice, at->emitter); }, rs->fail,
          blk.name);
    }
    sim::Future<sim::Unit> op;
    double est = 0.0;
    double depth = rs->cpu_depth;
    if (!use_gpu) {
      simdev::CpuTask t = cpu_map_task(spec, blk.slice);
      t.failed = &at->failed;
      t.body = std::move(body);
      est = node.cpu().task_duration(t);
      op = node.cpu().submit(std::move(t));
    } else {
      auto& gpu = node.gpu((blk.card + attempt) % node.gpu_count());
      simdev::Stream& stream =
          gpu.stream((blk.stream + attempt) % rs->streams());
      if (!spec.gpu_data_cached) {
        const double h2d =
            static_cast<double>(blk.slice.size()) * spec.item_bytes;
        (void)stream.memcpy_h2d(h2d);
        if (gpu.spec().pcie_bandwidth > 0.0) {
          est += h2d / gpu.spec().pcie_bandwidth;
        }
      }
      simdev::KernelDesc k = gpu_map_kernel(spec, blk.slice);
      k.failed = &at->failed;
      k.body = std::move(body);
      est += gpu.kernel_duration(k);
      depth = rs->gpu_depth;
      op = stream.launch(std::move(k));
    }
    ++st.map_tasks;
    auto timed = sim::with_timeout(
        sim, op, std::max(kMinTaskTimeout, kTaskTimeoutFactor * est * depth));
    const bool finished = co_await timed;
    if (!finished || at->failed) continue;  // timeout or injected error
    if (blk.done) {
      ++rs->ft->counters->double_completions;  // another attempt won
      co_return;
    }
    blk.done = true;
    blk.winner = ai;
    blk.winner_gpu = use_gpu;
    rs->durations.push_back(sim.now() - blk.started_at);
    if (speculative) ++rs->ft->counters->speculative_wins;
    blk.node_done->set_value(sim::Unit{});
    co_return;
  }
  if (!speculative) rs->lose(blk.name);
}

/// A faulted node's straggler watchdog (see the attempt policy above): a
/// block's speculative copy runs on the other device class.
template <typename K, typename V>
sim::Process ft_watchdog(GraphRankState<K, V>* rs,
                         sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  for (;;) {
    auto tick = sim::delay(sim, kStragglerTick);
    co_await tick;
    if (!rs->map_active || rs->aborted()) break;
    if (rs->durations.size() < kStragglerMinCompleted) continue;
    std::vector<double> d = rs->durations;
    const auto mid = d.size() / 2;
    std::nth_element(d.begin(), d.begin() + static_cast<long>(mid), d.end());
    for (std::size_t i = 0; i < rs->blocks.size(); ++i) {
      auto& blk = rs->blocks[i];
      if (blk.done || blk.speculated ||
          sim.now() - blk.started_at <= kStragglerFactor * d[mid]) {
        continue;
      }
      blk.speculated = true;
      ++rs->ft->counters->speculations;
      const bool backup_gpu = !rs->cpu_ok() || (!blk.gpu && rs->gpu_ok());
      if (rs->ctx.tr != nullptr) {
        rs->ctx.tr->instant(
            rs->ctx.runner_track, "ft.speculate", "fault",
            {obs::arg("block", static_cast<std::uint64_t>(i)),
             obs::arg("backup_gpu", backup_gpu)});
      }
      sim.spawn(ft_attempts(rs, i, backup_gpu, /*speculative=*/true));
    }
  }
  done.set_value(sim::Unit{});
}

/// Map-stage epilogue: the bulk copy-back (unless per-block D2H nodes
/// already moved the bytes), then the host merge. Faulted: the winning
/// emitters join the batch in block-plan order, and the cards copy back
/// one by one under deadlines; a hung card is traced and skipped, since
/// device bodies run on the host and the pairs are already there.
template <typename K, typename V>
sim::Process g_merge(GraphRankState<K, V>* rs, bool bulk_copy_back,
                     sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  if (rs->ft != nullptr) {
    rs->map_active = false;
    NodeMapBatch<K, V>& batch = rs->map->batch();
    for (const auto& blk : rs->blocks) {
      Emitter<K, V>& em = rs->attempts[blk.winner].emitter;
      if (blk.winner_gpu) {
        batch.gpu_pairs += em.size();
        batch.gpu_items += blk.slice.size();
      }
      batch.emitters.push_back(std::move(em));
    }
    const auto& spec = rs->ctx.spec();
    const double d2h_bytes =
        static_cast<double>(batch.gpu_pairs) * spec.pair_bytes +
        static_cast<double>(batch.gpu_items) * spec.gpu_item_d2h_bytes;
    for (int g = 0; d2h_bytes > 0.0 && g < rs->cards(); ++g) {
      const double per_card = d2h_bytes / static_cast<double>(rs->cards());
      auto& gpu = rs->ctx.node().gpu(g);
      auto copy = gpu.default_stream().memcpy_d2h(per_card);
      double est = kMinTaskTimeout;
      if (gpu.spec().pcie_bandwidth > 0.0) {
        est = std::max(est, per_card / gpu.spec().pcie_bandwidth);
      }
      auto timed = sim::with_timeout(sim, copy, kTaskTimeoutFactor * est);
      const bool ok = co_await timed;
      if (!ok && rs->ctx.tr != nullptr) {
        rs->ctx.tr->instant(rs->ctx.runner_track, "ft.copyback_timeout",
                            "fault",
                            {obs::arg("card", static_cast<std::uint64_t>(
                                                  static_cast<unsigned>(g)))});
      }
      if (rs->aborted()) {
        done.set_value(sim::Unit{});
        co_return;
      }
    }
  } else if (bulk_copy_back) {
    auto d2h = rs->map->copy_back();
    co_await d2h;
  }
  auto d = sim::delay(sim, rs->map->host_merge_cost(rs->node_items));
  co_await d;
  rs->map->finish(rs->map_t0, rs->node_items);
  done.set_value(sim::Unit{});
}

/// Shuffle: all_to_all over the cluster. Faulted: each node sends to and
/// receives from every alive peer; the inbound messages merge in rank
/// order, as the all_to_all's do.
template <typename K, typename V>
sim::Process g_shuffle(GraphRankState<K, V>* rs,
                       sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto outbound = rs->shuffle->prepare(rs->map->batch(), rs->ranks.size());
  const double t0 = sim.now();
  const int tag = kShuffleTag + rs->tag_base;
  if (rs->ft == nullptr) {
    auto a2a = rs->comm().all_to_all(std::move(outbound), tag);
    rs->inbound = co_await a2a;
  } else {
    std::vector<int> peers;
    simnet::Message own;
    for (std::size_t i = 0; i < rs->ranks.size(); ++i) {
      const int peer = rs->ranks[i];
      if (peer == rs->ctx.rank) {
        own = std::move(outbound[i]);
      } else {
        rs->comm().send(peer, tag, std::move(outbound[i]));
        peers.push_back(peer);
      }
    }
    auto in = ft_collect(rs, std::move(peers), std::move(own), tag);
    rs->inbound = co_await in;
  }
  rs->shuffle->finish(t0);
  done.set_value(sim::Unit{});
}

template <typename K, typename V>
sim::Process g_reduce(GraphRankState<K, V>* rs,
                      sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  const double t0 = sim.now();
  rs->reduced = rs->reduce->merge(rs->inbound, rs->reduce_pairs);
  rs->inbound.clear();
  if (rs->ft == nullptr) {
    auto futs = rs->reduce->submit_device_tasks(rs->reduce_pairs);
    auto all = sim::when_all(sim, futs);
    co_await all;
  }
  // Faulted: the device tasks race a deadline; a miss re-times the whole
  // reduce once on the CPU (the merge already ran on the host), and a
  // second miss loses the node.
  for (int round = 0; rs->ft != nullptr && round < 2; ++round) {
    double est = 0.0;
    std::vector<sim::Future<sim::Unit>> futs;
    if (round == 0) {
      futs = rs->reduce->submit_device_tasks(rs->reduce_pairs, &est);
    } else if (rs->cpu_ok() && rs->reduce_pairs > 0) {
      simdev::CpuTask t = reduce_cpu_task(
          rs->ctx.spec(), static_cast<double>(rs->reduce_pairs));
      est = rs->ctx.node().cpu().task_duration(t);
      futs.push_back(rs->ctx.node().cpu().submit(std::move(t)));
      ++rs->ctx.st->reduce_tasks;
    }
    if (futs.empty()) break;
    auto all = sim::when_all(sim, futs);
    auto timed = sim::with_timeout(
        sim, all, std::max(kMinTaskTimeout, kTaskTimeoutFactor * est));
    const bool ok = co_await timed;
    if (ok || rs->aborted()) break;
    if (round == 1) {
      rs->lose(rs->name + "reduce");
    } else {
      ++rs->ft->counters->task_retries;
      if (rs->ctx.tr != nullptr) {
        rs->ctx.tr->instant(rs->ctx.runner_track, "ft.reduce_retry",
                            "fault");
      }
    }
  }
  if (rs->ft == nullptr || !rs->aborted()) {
    rs->reduce->finish(t0, rs->reduce_pairs);
  }
  done.set_value(sim::Unit{});
}

/// Gather onto the master. Faulted: the master receives from every alive
/// peer and records when the job finished.
template <typename K, typename V>
sim::Process g_gather(GraphRankState<K, V>* rs,
                      sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  const double t0 = sim.now();
  simnet::Message mine = rs->gather->pack(std::move(rs->reduced));
  const int tag = kGatherTag + rs->tag_base;
  std::vector<simnet::Message> gathered;
  if (rs->ft == nullptr) {
    auto g = rs->comm().gather(0, std::move(mine), tag);
    gathered = co_await g;
  } else if (rs->ctx.rank == 0) {
    // The master is always alive, so it is ranks[0].
    std::vector<int> peers(rs->ranks.begin() + 1, rs->ranks.end());
    auto in = ft_collect(rs, std::move(peers), std::move(mine), tag);
    gathered = co_await in;
    rs->ft->finish_time = sim.now();
  } else {
    rs->comm().send(0, tag, std::move(mine));
  }
  if (rs->ctx.rank == 0) rs->gather->unpack_on_master(gathered);
  rs->gather->finish(t0);
  if (rs->ctx.tr != nullptr) {
    rs->ctx.tr->complete(rs->ctx.runner_track,
                         rs->ctx.spec().name + ":job", "job", rs->phase_t0,
                         sim.now());
  }
  // Region-based memory: all of this job's intermediates go at once.
  rs->ctx.node().region().clear();
  if (rs->ft != nullptr) rs->ft->done.insert(rs->ctx.rank);
  ++rs->ctx.st->nodes_done;
  done.set_value(sim::Unit{});
}

// -- graph builder ------------------------------------------------------------

/// Appends one partition's planned blocks to `rs.blocks`, CPU blocks
/// first. Static: the CPU share (Eq (8)'s p) in multiplier x cores blocks
/// and the GPU share in one block per card and stream. Faulted dynamic:
/// the partition cut into block_items blocks up front, the first p share
/// for the CPU. GPU blocks go round-robin over cards, then each card's
/// streams (paper §III.C.1).
template <typename K, typename V>
void plan_blocks(GraphRankState<K, V>& rs, const InputSlice& partition,
                 bool dynamic) {
  const JobState<K, V>& st = *rs.ctx.st;
  const double p = st.cpu_fraction[rs.ctx.rk()];
  const auto cards = static_cast<std::size_t>(rs.cards());
  const auto streams = static_cast<std::size_t>(rs.streams());
  std::vector<InputSlice> cpu;
  std::vector<InputSlice> gpu;
  if (dynamic) {
    cpu = partition.blocks_of(rs.ctx.policy->block_items(
        *rs.ctx.cluster, job_shape(rs.ctx.spec()), st.cfg, rs.ctx.rank,
        partition.size()));
    const auto n_cpu = static_cast<std::size_t>(
        static_cast<double>(cpu.size()) * (cards > 0 ? p : 1.0) + 0.5);
    gpu.assign(cpu.begin() + static_cast<long>(std::min(n_cpu, cpu.size())),
               cpu.end());
    cpu.resize(cpu.size() - gpu.size());
  } else {
    const auto [cpu_part, gpu_part] = partition.split_at_fraction(p);
    if (!cpu_part.empty()) {
      cpu = cpu_part.blocks(static_cast<std::size_t>(
          roofline::AnalyticScheduler::cpu_block_count(
              rs.ctx.node().cpu().cores(), st.cfg.cpu_block_multiplier)));
    }
    if (!gpu_part.empty() && cards > 0) gpu = gpu_part.blocks(streams * cards);
  }
  for (std::size_t i = 0; i < cpu.size() + gpu.size(); ++i) {
    MapBlock<K, V>& blk = rs.blocks.emplace_back();
    const std::size_t g = i - cpu.size();  // index among the GPU blocks
    blk.gpu = i >= cpu.size();
    blk.slice = blk.gpu ? gpu[g] : cpu[i];
    blk.card = blk.gpu ? static_cast<int>(g % cards) : 0;
    blk.stream = blk.gpu ? static_cast<int>((g / cards) % streams) : 0;
  }
}

/// Builds one whole job into `g`: the per-rank stage spine with one map
/// round per partition, over every rank (or a faulted job's alive ranks).
template <typename K, typename V>
void build_job_graph(graph::TaskGraph& g, GraphJob<K, V>& job,
                     Cluster& cluster, SchedulePolicy* policy,
                     std::shared_ptr<GraphFailBox> fail, bool overlap,
                     int tag_base) {
  auto& sim = cluster.simulator();
  JobState<K, V>* st = job.st.get();
  obs::TraceRecorder* tr = sim.tracer();
  if (tr != nullptr && !tr->enabled()) tr = nullptr;
  const int nodes = cluster.size();
  const bool dynamic = policy->dispatch() == SchedulingMode::kDynamic;
  const bool faulted = job.ft != nullptr;
  std::vector<int> ranks;
  for (int r = 0; r < nodes; ++r) ranks.push_back(r);
  if (faulted) ranks = job.ft->alive;

  for (const int r : ranks) {
    const auto rk = static_cast<std::size_t>(r);
    job.ranks.push_back(std::make_unique<GraphRankState<K, V>>());
    GraphRankState<K, V>* rs = job.ranks.back().get();
    rs->ctx.cluster = &cluster;
    rs->ctx.st = st;
    rs->ctx.policy = policy;
    rs->ctx.rank = r;
    rs->ranks = ranks;
    // Appended piecewise: "n" + std::to_string(r) trips GCC 12's
    // -Wrestrict false positive in operator+(const char*, string&&).
    rs->name = "n";
    rs->name += std::to_string(r);
    rs->name += ':';
    rs->fail = fail;
    rs->tag_base = tag_base;
    rs->ft = job.ft;
    if (tr != nullptr) {
      rs->ctx.tr = tr;
      rs->ctx.runner_track =
          tr->track("node" + std::to_string(r), "runner");
      // The level-2 decision this node runs with: Eq (8)'s CPU share p,
      // Eqs (9)-(11)'s stream count, and the block granularities.
      tr->instant(
          rs->ctx.runner_track, "sched.decision", "sched",
          {obs::arg("p", st->cpu_fraction[rk]),
           obs::arg("gpu_streams", st->gpu_streams[rk]),
           obs::arg("partitions", static_cast<std::uint64_t>(
                                      st->node_partitions[rk].size())),
           obs::arg("cpu_blocks",
                    roofline::AnalyticScheduler::cpu_block_count(
                        rs->ctx.node().cpu().cores(),
                        st->cfg.cpu_block_multiplier)),
           obs::arg("mode", policy->name())});
      if (faulted) {
        tr->instant(rs->ctx.runner_track, "ft.attempt", "fault",
                    {obs::arg("attempt", static_cast<std::uint64_t>(
                                             tag_base / kAttemptTagStride)),
                     obs::arg("alive",
                              static_cast<std::uint64_t>(ranks.size())),
                     obs::arg("p", st->cpu_fraction[rk])});
      }
    }
    rs->map.emplace(rs->ctx);
    rs->shuffle.emplace(rs->ctx);
    rs->reduce.emplace(rs->ctx);
    rs->gather.emplace(rs->ctx);
    for (const auto& p : st->node_partitions[rk]) rs->node_items += p.size();

    const std::string& rp = rs->name;
    const graph::NodeId start = g.add_work(
        rp + "start", "delay", r,
        [rs](sim::Simulator& s, sim::Promise<sim::Unit> done) {
          (void)s;
          return g_startup<K, V>(rs, std::move(done));
        });

    // Partition rounds chain serially (the daemon thread dispatches one
    // partition's blocks before moving to the next), but a static
    // partition's blocks do NOT gate the next round.
    std::vector<graph::NodeId> tails;  // everything the merge waits on
    graph::NodeId prev_dispatch = start;
    int rounds = 0;
    for (const auto& p : st->node_partitions[rk]) {
      if (!p.empty()) ++rounds;
    }
    int pi = 0;
    for (const auto& partition : st->node_partitions[rk]) {
      if (partition.empty()) continue;
      const std::string pp = rp + "p" + std::to_string(pi++) + ":";
      if (dynamic && !faulted) {
        const std::string name = pp + "map:dynamic";
        const graph::NodeId round = g.add_work(
            name, "map", r,
            [rs, partition, name](sim::Simulator& s,
                                  sim::Promise<sim::Unit> done) {
              (void)s;
              return g_dynamic_round<K, V>(rs, partition, name,
                                           std::move(done));
            });
        g.depend(round, prev_dispatch);
        prev_dispatch = round;
        continue;
      }
      const std::size_t first = rs->blocks.size();
      plan_blocks(*rs, partition, dynamic);
      // A faulted round enqueues its planned blocks; a static one charges
      // the analytic block count.
      const double enqueue_cost =
          faulted ? static_cast<double>(rs->blocks.size() - first) *
                        calib::kPrsTaskDispatch
                  : rs->map->static_dispatch_cost();
      const bool last_round = pi == rounds;
      const graph::NodeId disp = g.add_work(
          pp + "dispatch", "delay", r,
          [rs, enqueue_cost, last_round](sim::Simulator& s,
                                         sim::Promise<sim::Unit> done) {
            (void)s;
            return g_dispatch<K, V>(rs, enqueue_cost, last_round,
                                    std::move(done));
          });
      g.depend(disp, prev_dispatch);
      prev_dispatch = disp;

      int n_cpu = 0;
      int n_gpu = 0;
      for (std::size_t bi = first; bi < rs->blocks.size(); ++bi) {
        MapBlock<K, V>& blk = rs->blocks[bi];
        blk.name = pp + (blk.gpu ? "map:gpu" + std::to_string(n_gpu++)
                                 : "map:cpu" + std::to_string(n_cpu++));
        const graph::NodeId n = g.add_work(
            blk.name, blk.gpu ? "kernel" : "cpu", r,
            [rs, bi](sim::Simulator& s, sim::Promise<sim::Unit> done) {
              MapBlock<K, V>& b = rs->blocks[bi];
              if (rs->ft == nullptr) {
                return b.gpu ? g_gpu_block<K, V>(rs, bi, std::move(done))
                             : g_cpu_block<K, V>(rs, bi, std::move(done));
              }
              b.started_at = s.now();
              b.node_done.emplace(std::move(done));
              return ft_attempts<K, V>(rs, bi, b.gpu, /*speculative=*/false);
            });
        g.depend(n, disp);
        if (overlap && blk.gpu) {
          const graph::NodeId d2h = g.add_work(
              blk.name + ":d2h", "d2h", r,
              [rs, bi](sim::Simulator& s, sim::Promise<sim::Unit> done) {
                (void)s;
                return g_block_d2h<K, V>(rs, bi, std::move(done));
              });
          g.depend(d2h, n);
          tails.push_back(d2h);
        } else {
          tails.push_back(n);
        }
      }
    }
    if (faulted && !rs->blocks.empty()) {
      const graph::NodeId watchdog = g.add_work(
          rp + "watchdog", "delay", r,
          [rs](sim::Simulator& s, sim::Promise<sim::Unit> done) {
            (void)s;
            return ft_watchdog<K, V>(rs, std::move(done));
          });
      g.depend(watchdog, prev_dispatch);
    }

    // Dynamic blocks do not exist yet, so they keep the bulk copy-back, as
    // do faulted jobs.
    const bool bulk = !overlap || dynamic || faulted;
    const graph::NodeId merge = g.add_work(
        rp + "merge", bulk ? "d2h" : "host", r,
        [rs, bulk](sim::Simulator& s, sim::Promise<sim::Unit> done) {
          (void)s;
          return g_merge<K, V>(rs, bulk, std::move(done));
        });
    g.depend(merge, prev_dispatch);  // empty-partition ranks still merge
    g.depend_all(merge, tails);

    const graph::NodeId shuffle = g.add_work(
        rp + "shuffle", "net", r,
        [rs](sim::Simulator& s, sim::Promise<sim::Unit> done) {
          (void)s;
          return g_shuffle<K, V>(rs, std::move(done));
        });
    g.depend(shuffle, merge);

    const graph::NodeId reduce = g.add_work(
        rp + "reduce", "cpu", r,
        [rs](sim::Simulator& s, sim::Promise<sim::Unit> done) {
          (void)s;
          return g_reduce<K, V>(rs, std::move(done));
        });
    g.depend(reduce, shuffle);

    const graph::NodeId gather = g.add_work(
        rp + "gather", "net", r,
        [rs](sim::Simulator& s, sim::Promise<sim::Unit> done) {
          (void)s;
          return g_gather<K, V>(rs, std::move(done));
        });
    g.depend(gather, reduce);
  }
}

/// Writes the DOT rendering of `g` to `path` (--graph-dump).
inline void write_graph_dot(const graph::TaskGraph& g,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open graph dump file: " + path);
  out << g.to_dot();
  if (!out) throw Error("failed writing graph dump file: " + path);
}

/// Drives the simulator until `exec`'s graph drains. A failed node's error
/// surfaces as Error("task graph node '<name>' failed: ..."); a faulted
/// node's loss (`ft`) is left to the job-attempt loop.
inline void run_graph(sim::Simulator& sim, graph::GraphExecutor& exec,
                      const FaultedAttempt* ft = nullptr) {
  const auto wrapped = [&exec](const std::exception& e) {
    return Error("task graph node '" + exec.failure_site() +
                 "' failed: " + e.what());
  };
  exec.start();
  try {
    sim.run();
  } catch (const Error&) {
    throw;  // already carries context (or is a runtime invariant)
  } catch (const std::exception& e) {
    if (exec.failed()) throw wrapped(e);
    throw;
  }
  if (ft != nullptr && !ft->lost.empty()) return;
  try {
    exec.rethrow_if_failed();
  } catch (const std::exception& e) {
    throw wrapped(e);
  }
}

/// The post-mortem of a failed attempt, in order: the lost nodes; else the
/// finished nodes a stalled node still awaits (they crashed after
/// finishing, e.g. mid gather send); else the stalled nodes no stalled peer
/// heard from (they stopped sending while the others exchanged data);
/// else every stalled node but the master.
inline std::set<int> ft_blame(const FaultedAttempt& ft) {
  if (!ft.lost.empty()) return ft.lost;
  std::set<int> stalled, awaited, unheard, heard;
  for (int r : ft.alive) {
    if (ft.done.count(r) == 0) stalled.insert(r);
  }
  for (const auto& [r, s] : ft.expecting) {
    if (stalled.count(r) != 0 && stalled.count(s) == 0) awaited.insert(s);
  }
  for (int s : stalled) {
    bool got = false;
    for (int r : stalled) got = got || (r != s && ft.got.count({r, s}) != 0);
    if (s != 0) (got ? heard : unheard).insert(s);
  }
  if (!awaited.empty()) return awaited;
  return unheard.empty() ? heard : unheard;
}

/// Runs one job as one task graph (run_job's engine). A faulted job runs
/// in attempts: each builds the graph over the alive nodes in its own tag
/// space (charging the job startup again), and between attempts the blamed
/// nodes are blacklisted and the input is re-split over the survivors. Its
/// elapsed time stops at the master's gather, not when the simulator
/// drains.
template <typename K, typename V>
JobResult<K, V> run_job_graph(Cluster& cluster,
                              const MapReduceSpec<K, V>& spec,
                              const JobConfig& cfg, std::size_t n_items,
                              SchedulePolicy* policy) {
  auto& sim = cluster.simulator();
  fault::FaultInjector* inj = cfg.faults;
  if (inj != nullptr) cluster.set_fault_hooks(inj, inj);
  const int nodes = cluster.size();
  const double t0 = sim.now();
  const ClusterCounters counters0 = snapshot_counters(cluster);
  const std::uint64_t retrans0 = cluster.fabric().retransmits();
  std::vector<int> alive;
  for (int r = 0; r < nodes; ++r) alive.push_back(r);
  // Nodes the caller already knows are dead (run_iterative after a
  // recovered crash) start excluded; they were counted in blacklisted_nodes
  // when first detected, so they do not bump the counter again here.
  for (int r : cfg.presumed_dead) {
    if (inj == nullptr) break;
    PRS_REQUIRE(r != 0, "master (rank 0) cannot be presumed dead");
    alive.erase(std::remove(alive.begin(), alive.end(), r), alive.end());
  }
  JobStats counters;  // the fault-tolerance counters, added up below
  counters.iterations = 0;
  counters.job_attempts = 0;

  GraphJob<K, V> job;
  for (int attempt = 0;; ++attempt) {
    job = GraphJob<K, V>{};
    job.st = make_job_state(cluster, spec, cfg, n_items, policy, alive);
    if (inj != nullptr) {
      job.ft = std::make_shared<FaultedAttempt>();
      job.ft->alive = alive;
      job.ft->counters = &counters;
    }
    graph::TaskGraph g(spec.name + ":job");
    auto fail = std::make_shared<GraphFailBox>();
    build_job_graph(g, job, cluster, policy, fail,
                    cfg.pipeline_depth > 1 && inj == nullptr,
                    attempt * kAttemptTagStride);
    if (!cfg.graph_dump_path.empty()) {
      write_graph_dot(g, cfg.graph_dump_path);
    }
    graph::GraphExecutor exec(sim, g);
    fail->exec = &exec;
    run_graph(sim, exec, job.ft.get());
    if (inj != nullptr) job.ft->over = true;
    const bool finished =
        job.st->nodes_done == static_cast<int>(alive.size());
    if (inj == nullptr || (job.ft->lost.empty() && finished)) {
      PRS_CHECK(exec.done(), "job graph drained with unfinished nodes");
      PRS_CHECK(finished, "job finished with missing nodes");
      break;
    }
    const std::set<int> failed = ft_blame(*job.ft);
    PRS_CHECK(!failed.empty(), "job attempt failed with no suspect node");
    PRS_REQUIRE(failed.count(0) == 0,
                "master (rank 0) failed; cannot recover");
    for (int r : failed) {
      alive.erase(std::remove(alive.begin(), alive.end(), r), alive.end());
    }
    counters.blacklisted_nodes += static_cast<int>(failed.size());
    ++counters.job_attempts;
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
    PRS_CHECK(attempt + 1 < kMaxJobAttempts,
              "job failed after max_job_attempts");
  }

  const double elapsed =
      inj != nullptr ? job.ft->finish_time - t0 : sim.now() - t0;
  JobResult<K, V> result;
  result.output = std::move(job.st->final_output);
  result.stats = collect_stats(cluster, counters0, *job.st, elapsed);
  policy->observe(collect_feedback(cluster, counters0,
                                   job.st->cpu_fraction, elapsed));
  record_job_metrics(sim, *job.st, elapsed);
  if (inj == nullptr) return result;

  counters.retransmits = cluster.fabric().retransmits() - retrans0;
  result.stats.accumulate(counters);
  obs::TraceRecorder* tr = sim.tracer();
  if (tr != nullptr && tr->enabled()) {
    auto& m = tr->metrics();
    for (const auto& [name, v] :
         {std::pair{"task_retries", counters.task_retries},
          {"speculations", counters.speculations},
          {"speculative_wins", counters.speculative_wins},
          {"double_completions", counters.double_completions},
          {"retransmits", counters.retransmits}}) {
      m.counter(std::string("fault.") + name).add(static_cast<double>(v));
    }
  }
  cluster.set_fault_hooks(nullptr, nullptr);
  return result;
}

}  // namespace detail
}  // namespace prs::core
