// Stage objects of the PRS execution pipeline (paper §III.A.2):
// map -> combine -> shuffle -> reduce -> gather, one instance per node per
// job, composed by the thin node_main orchestrator in job_runner.hpp.
//
// Each stage owns its logic, accounting, and tracing/metrics sites; every
// co_await stays in node_main so the orchestrator remains the single
// coroutine and stages stay plain (unit-sized, testable) objects. The only
// auxiliary processes are the dynamic-mode device daemons and the block
// dispatcher (§III.B.2), spawned by MapStage::start_dynamic.
//
// NOTE (GCC 12): all co_await sites follow the named-temporary rule
// documented in simtime/process.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/cluster.hpp"
#include "core/job.hpp"
#include "core/mapreduce_spec.hpp"
#include "core/schedule_policy.hpp"
#include "exec/parallel.hpp"
#include "obs/trace.hpp"
#include "simtime/channel.hpp"
#include "simtime/future.hpp"
#include "simtime/process.hpp"

namespace prs::core {
namespace detail {

inline constexpr int kShuffleTag = 100;
inline constexpr int kGatherTag = 200;
inline constexpr int kDistributeTag = 300;

/// Type-erased scheduling view of a spec (the policy layer is not
/// templated on key/value types). The returned shape borrows `spec`.
template <typename K, typename V>
JobShape job_shape(const MapReduceSpec<K, V>& spec) {
  JobShape shape;
  shape.ai_cpu = spec.ai_cpu;
  shape.ai_gpu = spec.ai_gpu;
  shape.gpu_data_cached = spec.gpu_data_cached;
  shape.item_bytes = spec.item_bytes;
  const auto* s = &spec;
  shape.ai_of_block = [s](double b) { return s->ai_of_block_or_default(b); };
  return shape;
}

/// The functional map payloads of one job that a device has accepted but
/// whose result no completion has needed yet (DESIGN.md §4f).
///
/// A payload runs after its task is submitted and no later than its
/// task's completion step. The first completion that needs a pending
/// result runs the whole pending set: payloads more than twice the set's
/// mean slice one by one on the simulator thread, then one more payload
/// there, then, with every other emitter pre-sized there from that
/// payload's pairs per input item, the rest in one host-pool region
/// (grain 1; the payloads' own regions run inline). Payloads only read
/// job state and write their own emitter, and an emitter is read only
/// after its own task's completion, so virtual time and output bytes
/// cannot depend on when or where the batch ran. Each payload's exception
/// is rethrown at its own task's completion.
template <typename K, typename V>
class PendingMaps {
 public:
  using MapFn = typename MapReduceSpec<K, V>::MapFn;

  struct Payload {
    MapFn fn;
    InputSlice slice;
    Emitter<K, V>* emitter = nullptr;
    bool ran = false;
    std::exception_ptr error;
  };

  /// Queues fn(slice, emitter). `emitter` must outlive the job; the
  /// returned handle lives as long as this set.
  Payload* add(const MapFn& fn, InputSlice slice, Emitter<K, V>& emitter) {
    payloads_.push_back(Payload{fn, slice, &emitter, false, nullptr});
    pending_.push_back(&payloads_.back());
    return pending_.back();
  }

  /// The completion step of `p`'s task: runs the pending set unless `p`
  /// already ran, then rethrows `p`'s exception, if any.
  void complete(Payload& p) {
    if (!p.ran) run_pending();
    if (p.error != nullptr) std::rethrow_exception(p.error);
  }

 private:
  static void run(Payload& p) {
    try {
      p.fn(p.slice, *p.emitter);
    } catch (...) {
      p.error = std::current_exception();
    }
    p.ran = true;
  }

  void run_pending() {
    std::vector<Payload*> batch;
    batch.swap(pending_);
    // An outsized payload (a GPU share's block beside many small CPU
    // blocks) would run serially on one lane of the batch, and its large
    // buffers would come from that lane's malloc arena (see below). Alone
    // on the simulator thread its own regions use the whole pool.
    std::size_t items = 0;
    for (const Payload* p : batch) items += p->slice.size();
    const std::size_t outsized = 2 * items / batch.size();
    std::vector<Payload*> rest;
    for (Payload* p : batch) {
      if (p->slice.size() > outsized) {
        run(*p);
      } else {
        rest.push_back(p);
      }
    }
    if (rest.empty()) return;
    run(*rest.front());
    // Sized here rather than grown on the workers: buffers allocated on
    // the simulator thread reuse memory the job's caller already freed
    // (worker-thread arenas cannot), which keeps peak RSS flat. One
    // payload's pair count is only a sample — outputs such as wordcount's
    // distinct words vary from block to block — so size an eighth above
    // it; a short buffer would regrow on a worker.
    const Payload& first = *rest.front();
    const double per_item =
        first.slice.empty()
            ? 0.0
            : 1.125 * static_cast<double>(first.emitter->size()) /
                  static_cast<double>(first.slice.size());
    for (std::size_t i = 1; i < rest.size(); ++i) {
      rest[i]->emitter->reserve(static_cast<std::size_t>(
          std::ceil(per_item * static_cast<double>(rest[i]->slice.size()))));
    }
    exec::parallel_for(1, rest.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) run(*rest[i]);
    });
  }

  std::deque<Payload> payloads_;   // stable addresses for the task bodies
  std::vector<Payload*> pending_;  // submitted, not yet run
};

/// Mutable state shared by the per-node processes of one job run.
template <typename K, typename V>
struct JobState {
  const MapReduceSpec<K, V>* spec = nullptr;
  JobConfig cfg;
  std::size_t n_items = 0;
  // Per-node scheduling decisions (inhomogeneous fat nodes get their own
  // Eq (8) split and stream count, §III.B.3.a).
  std::vector<double> cpu_fraction;  // p: share mapped on the node's CPU
  std::vector<int> gpu_streams;
  std::vector<std::vector<InputSlice>> node_partitions;

  // Map payloads waiting for their first needed result. Per job, not per
  // simulator or cluster: handles live exactly as long as the emitters
  // they fill, and a flush runs only this job's payloads, never those of
  // another iteration sharing the simulator (pipelined windows).
  PendingMaps<K, V> pending_maps;

  // Outputs / accounting (single-threaded simulator: no locking needed).
  std::map<K, V> final_output;
  int nodes_done = 0;
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t intermediate_pairs = 0;

  // Phase breakdown: max over nodes (the stage barrier is the slowest node).
  double startup_time = 0.0;
  double map_time = 0.0;
  double shuffle_time = 0.0;
  double reduce_time = 0.0;
  double gather_time = 0.0;
};

/// Everything the stages of one node share for one job run.
template <typename K, typename V>
struct StageContext {
  Cluster* cluster = nullptr;
  JobState<K, V>* st = nullptr;
  SchedulePolicy* policy = nullptr;
  int rank = 0;
  obs::TraceRecorder* tr = nullptr;  // nullptr when tracing is off
  obs::TrackId runner_track = 0;

  sim::Simulator& sim() const { return cluster->simulator(); }
  FatNode& node() const { return cluster->node(rank); }
  const MapReduceSpec<K, V>& spec() const { return *st->spec; }
  std::size_t rk() const { return static_cast<std::size_t>(rank); }
};

/// Per-node transient state for the map stage.
template <typename K, typename V>
struct NodeMapBatch {
  std::deque<Emitter<K, V>> emitters;           // one per map task
  std::vector<sim::Future<sim::Unit>> futures;  // one per async device op
  std::uint64_t gpu_pairs = 0;                  // pairs produced on the GPU
  std::uint64_t gpu_items = 0;                  // input items mapped on GPU
};

/// Builds the timed CPU map task for `slice`. Its payload, emitting into a
/// fresh emitter owned by `batch`, joins the job's pending set.
template <typename K, typename V>
simdev::CpuTask make_cpu_map_task(JobState<K, V>& st,
                                  NodeMapBatch<K, V>& batch,
                                  InputSlice slice) {
  const auto& spec = *st.spec;
  const auto items = static_cast<double>(slice.size());
  simdev::CpuTask t;
  t.name = spec.name + ":map:cpu";
  t.workload.flops = items * spec.cpu_flops_per_item;
  t.workload.mem_traffic = items * spec.cpu_traffic_per_item();
  t.compute_efficiency = spec.efficiency.cpu_compute;
  t.memory_efficiency = spec.efficiency.cpu_memory;

  batch.emitters.emplace_back();
  const auto& fn = st.cfg.mode == ExecutionMode::kFunctional
                       ? spec.cpu_map
                       : spec.modeled_map;
  if (fn) {
    auto* pending = &st.pending_maps;
    auto* p = pending->add(fn, slice, batch.emitters.back());
    t.body = [pending, p] { pending->complete(*p); };
  }
  return t;
}

/// Builds the timed GPU map kernel for `slice` (payload as above).
template <typename K, typename V>
simdev::KernelDesc make_gpu_map_kernel(JobState<K, V>& st,
                                       NodeMapBatch<K, V>& batch,
                                       InputSlice slice) {
  const auto& spec = *st.spec;
  const auto items = static_cast<double>(slice.size());
  simdev::KernelDesc k;
  k.name = spec.name + ":map:gpu";
  k.workload.flops = items * spec.gpu_flops_per_item;
  k.workload.mem_traffic = items * spec.gpu_traffic_per_item();
  k.compute_efficiency = spec.efficiency.gpu_compute;
  k.memory_efficiency = spec.efficiency.gpu_memory;

  batch.emitters.emplace_back();
  Emitter<K, V>* emitter = &batch.emitters.back();
  NodeMapBatch<K, V>* b = &batch;
  const auto& fn = st.cfg.mode == ExecutionMode::kFunctional
                       ? spec.gpu_map_or_default()
                       : spec.modeled_map;
  if (fn) {
    auto* pending = &st.pending_maps;
    auto* p = pending->add(fn, slice, *emitter);
    k.body = [pending, p, emitter, b] {
      pending->complete(*p);
      b->gpu_pairs += emitter->size();
    };
  }
  return k;
}

/// Dynamic-mode CPU worker: polls blocks whenever its core frees up.
template <typename K, typename V>
sim::Process cpu_block_worker(JobState<K, V>& st, FatNode& node,
                              NodeMapBatch<K, V>& batch,
                              sim::Channel<InputSlice>& blocks,
                              std::shared_ptr<int> live,
                              sim::Promise<sim::Unit> all_done) {
  for (;;) {
    auto b = co_await blocks.recv();
    if (!b) break;
    simdev::CpuTask t = make_cpu_map_task(st, batch, *b);
    ++st.map_tasks;
    auto fut = node.cpu().submit(std::move(t));
    co_await fut;
  }
  if (--*live == 0) all_done.set_value(sim::Unit{});
}

/// Dynamic-mode GPU pipeline: one per (card, stream), polls when idle.
template <typename K, typename V>
sim::Process gpu_block_worker(JobState<K, V>& st, FatNode& node,
                              NodeMapBatch<K, V>& batch,
                              sim::Channel<InputSlice>& blocks, int card,
                              int stream_index, std::shared_ptr<int> live,
                              sim::Promise<sim::Unit> all_done) {
  auto& gpu = node.gpu(card);
  simdev::Stream& stream = gpu.stream(stream_index);
  const auto& spec = *st.spec;
  for (;;) {
    auto b = co_await blocks.recv();
    if (!b) break;
    if (!spec.gpu_data_cached) {
      auto copy = stream.memcpy_h2d(static_cast<double>(b->size()) *
                                    spec.item_bytes);
      co_await copy;
    }
    simdev::KernelDesc k = make_gpu_map_kernel(st, batch, *b);
    batch.gpu_items += b->size();
    ++st.map_tasks;
    auto fut = stream.launch(std::move(k));
    co_await fut;
  }
  if (--*live == 0) all_done.set_value(sim::Unit{});
}

/// Dynamic-mode dispatcher: feeds blocks into the channel, charging the
/// serial per-task dispatch cost as each block is handed out — daemons pay
/// the dispatch latency only for blocks they actually pull, instead of the
/// whole partition's worth up front.
template <typename K, typename V>
sim::Process block_dispatcher(sim::Simulator& sim, JobState<K, V>& st,
                              std::shared_ptr<std::vector<InputSlice>> list,
                              sim::Channel<InputSlice>& blocks) {
  (void)st;
  for (const InputSlice& b : *list) {
    auto handoff = sim::delay(sim, calib::kPrsTaskDispatch);
    co_await handoff;
    blocks.send(b);
  }
  blocks.close();
}

/// Key/value pairs in emission order (an emitter's output, one shuffle
/// message), or a bucket's folded pairs in ascending key order.
template <typename K, typename V>
using PairRun = std::vector<std::pair<K, V>>;

/// Pairs per chunk when finding destinations. A fold of at most this many
/// pairs runs on the calling thread: a pool region costs more than it
/// saves there (cmeans' and dgemm's node combines hold at most about 10^3
/// pairs).
inline constexpr std::size_t kFoldGrain = 8192;

/// Folds the pairs of `runs` bound for destination `d` (every pair when
/// `dest` is null) into `out`; see fold_by_destination.
template <typename K, typename V>
void fold_destination(const MapReduceSpec<K, V>& spec, bool combine,
                      const std::vector<PairRun<K, V>*>& runs,
                      const std::uint32_t* dest, std::size_t d,
                      PairRun<K, V>& out) {
  // Open addressing over the keys in `out`: a slot holds 1 + the key's
  // index there, 0 when empty. The slot comes from the hash's high bits,
  // since every key here shares the hash's residue modulo `dests`.
  int bits = 6;
  std::vector<std::uint32_t> slots(std::size_t{1} << bits);
  std::vector<std::size_t> hashes;  // per key in `out`
  const auto slot_of = [&bits](std::size_t h) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(h) * 0x9E3779B97F4A7C15ull) >>
        (64 - bits));
  };
  std::size_t i = 0;
  for (PairRun<K, V>* run : runs) {
    for (auto& kv : *run) {
      if (dest != nullptr && dest[i++] != d) continue;
      if (!combine) {
        out.push_back(std::move(kv));
        continue;
      }
      const std::size_t h = std::hash<K>{}(kv.first);
      const std::size_t mask = slots.size() - 1;
      std::size_t s = slot_of(h);
      while (slots[s] != 0 && !(hashes[slots[s] - 1] == h &&
                                out[slots[s] - 1].first == kv.first)) {
        s = (s + 1) & mask;
      }
      if (slots[s] != 0) {
        V& acc = out[slots[s] - 1].second;
        acc = spec.combine(acc, kv.second);
        continue;
      }
      out.push_back(std::move(kv));
      hashes.push_back(h);
      slots[s] = static_cast<std::uint32_t>(out.size());
      if (2 * out.size() > slots.size()) {
        ++bits;
        slots.assign(std::size_t{1} << bits, 0);
        for (std::size_t k = 0; k < hashes.size(); ++k) {
          std::size_t t = slot_of(hashes[k]);
          while (slots[t] != 0) t = (t + 1) & (slots.size() - 1);
          slots[t] = static_cast<std::uint32_t>(k + 1);
        }
      }
    }
  }
  if (combine) {
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
}

/// The node-local combine (the paper's optional combiner(), Table 1) and
/// the reduce merge (DESIGN.md §4f). Every pair of `runs` goes to bucket
/// std::hash<K>{}(key) % dests. With `combine`, a bucket holds its
/// distinct keys in ascending order, each with the left fold by
/// spec.combine of that key's values in emission order (run order, then
/// pair order): exactly what inserting the runs pair by pair into a
/// std::map gives, so order-sensitive combiners such as floating-point
/// sums keep their bits. Without it, a bucket keeps its raw pairs in
/// emission order. The runs' pairs are moved from. K's operator== must
/// agree with its operator<; spec.combine runs on pool workers.
///
/// Two pool steps: chunks of kFoldGrain pairs write each pair's
/// destination into a scratch array, then one chunk per destination
/// folds that destination's pairs. The scratch array is allocated here on
/// the calling (simulator) thread, like the emitters PendingMaps sizes.
template <typename K, typename V>
std::vector<PairRun<K, V>> fold_by_destination(
    const MapReduceSpec<K, V>& spec, bool combine,
    const std::vector<PairRun<K, V>*>& runs, std::size_t dests) {
  PRS_CHECK(dests >= 1 && dests <= UINT32_MAX, "bad destination count");
  std::vector<std::size_t> start(runs.size() + 1, 0);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    start[r + 1] = start[r] + runs[r]->size();
  }
  const std::size_t total = start.back();
  PRS_CHECK(total < UINT32_MAX, "too many pairs for one fold");
  const auto for_chunks = [total](std::size_t n, std::size_t grain,
                                  const auto& body) {
    if (total > kFoldGrain && n > grain) {
      exec::parallel_for(0, n, grain, body);
    } else if (n > 0) {
      body(0, n);
    }
  };
  std::vector<std::uint32_t> dest(dests > 1 ? total : 0);
  if (dests > 1) {
    for_chunks(total, kFoldGrain, [&](std::size_t b, std::size_t e) {
      auto r = static_cast<std::size_t>(
          std::upper_bound(start.begin(), start.end(), b) - start.begin() -
          1);
      for (std::size_t i = b; i < e; ++i) {
        while (i >= start[r + 1]) ++r;
        const K& key = (*runs[r])[i - start[r]].first;
        dest[i] = static_cast<std::uint32_t>(std::hash<K>{}(key) % dests);
      }
    });
  }
  std::vector<PairRun<K, V>> buckets(dests);
  // One destination (the reduce merge) holds at most every pair. Sized
  // once: regrown on the simulator thread it fragmented the main arena,
  // and dgemm_bulk's peak RSS rose by a further 30 MB in most runs.
  if (dests == 1) buckets[0].reserve(total);
  for_chunks(dests, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t d = b; d < e; ++d) {
      fold_destination(spec, combine, runs, dests > 1 ? dest.data() : nullptr,
                       d, buckets[d]);
    }
  });
  return buckets;
}

// -- map stage ----------------------------------------------------------------

/// §III.A.2 map stage: dispatches map blocks to the device daemons (static
/// enqueue or dynamic channel polling per the policy), then copies GPU
/// intermediates back and charges host-side key/value handling.
template <typename K, typename V>
class MapStage {
 public:
  explicit MapStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  NodeMapBatch<K, V>& batch() { return batch_; }

  /// Serial dispatch cost charged up front in static mode: the daemon
  /// thread enqueues every block of this partition before any runs.
  double static_dispatch_cost() const {
    const auto& st = *ctx_.st;
    const double est_tasks =
        (st.cpu_fraction[ctx_.rk()] > 0.0
             ? roofline::AnalyticScheduler::cpu_block_count(
                   ctx_.node().cpu().cores(), st.cfg.cpu_block_multiplier)
             : 0) +
        (st.cpu_fraction[ctx_.rk()] < 1.0
             ? st.gpu_streams[ctx_.rk()] * ctx_.node().gpu_count()
             : 0);
    return est_tasks * calib::kPrsTaskDispatch;
  }

  /// One GPU map block of a static plan, pinned to (card, stream) by the
  /// paper's round-robin (§III.C.1).
  struct GpuBlockPlan {
    InputSlice slice;
    int card = 0;
    int stream = 0;
  };

  /// The static sub-task plan for one partition: CPU share into
  /// multiplier x cores blocks, GPU share into one block per (card,
  /// stream) round-robin. Pure description — shared by the legacy enqueue
  /// below and the task-graph builder (core/job_graph.hpp), so both paths
  /// produce the same blocks in the same order.
  struct StaticPlan {
    std::vector<InputSlice> cpu_blocks;
    std::vector<GpuBlockPlan> gpu_blocks;
  };

  StaticPlan plan_static(const InputSlice& partition) const {
    const auto& st = *ctx_.st;
    FatNode& node = ctx_.node();
    const int streams = st.gpu_streams[ctx_.rk()];
    auto [cpu_part, gpu_part] =
        partition.split_at_fraction(st.cpu_fraction[ctx_.rk()]);
    StaticPlan plan;
    if (!cpu_part.empty()) {
      const int n_blocks = roofline::AnalyticScheduler::cpu_block_count(
          node.cpu().cores(), st.cfg.cpu_block_multiplier);
      for (const InputSlice& b :
           cpu_part.blocks(static_cast<std::size_t>(n_blocks))) {
        plan.cpu_blocks.push_back(b);
      }
    }
    if (!gpu_part.empty() && node.gpu_count() > 0) {
      // One daemon per GPU card (paper §III.C.1): blocks round-robin over
      // cards, then over each card's streams.
      const auto cards = static_cast<std::size_t>(node.gpu_count());
      const auto n_blocks = static_cast<std::size_t>(streams) * cards;
      std::size_t i = 0;
      for (const InputSlice& b : gpu_part.blocks(n_blocks)) {
        GpuBlockPlan gb;
        gb.slice = b;
        gb.card = static_cast<int>(i % cards);
        gb.stream = static_cast<int>(
            (i / cards) % static_cast<std::size_t>(streams));
        ++i;
        plan.gpu_blocks.push_back(gb);
      }
    }
    return plan;
  }

  /// Static dispatch of one partition: enqueues every planned block on its
  /// device. Pure enqueue, no await.
  void dispatch_static(const InputSlice& partition) {
    auto& st = *ctx_.st;
    FatNode& node = ctx_.node();
    const auto& spec = ctx_.spec();
    const StaticPlan plan = plan_static(partition);
    for (const InputSlice& b : plan.cpu_blocks) {
      simdev::CpuTask t = make_cpu_map_task(st, batch_, b);
      batch_.futures.push_back(node.cpu().submit(std::move(t)));
      ++st.map_tasks;
    }
    for (const GpuBlockPlan& gb : plan.gpu_blocks) {
      simdev::Stream& stream = node.gpu(gb.card).stream(gb.stream);
      if (!spec.gpu_data_cached) {
        batch_.futures.push_back(stream.memcpy_h2d(
            static_cast<double>(gb.slice.size()) * spec.item_bytes));
      }
      simdev::KernelDesc k = make_gpu_map_kernel(st, batch_, gb.slice);
      batch_.futures.push_back(stream.launch(std::move(k)));
      batch_.gpu_items += gb.slice.size();
      ++st.map_tasks;
    }
  }

  /// Dynamic dispatch of one partition: spawns the per-device block
  /// workers and the serial dispatcher; the returned future resolves when
  /// every worker has drained the channel and finished.
  sim::Future<sim::Unit> start_dynamic(const InputSlice& partition) {
    auto& st = *ctx_.st;
    auto& sim = ctx_.sim();
    FatNode& node = ctx_.node();

    const JobShape shape = job_shape(ctx_.spec());
    const std::size_t block_items = ctx_.policy->block_items(
        *ctx_.cluster, shape, st.cfg, ctx_.rank, partition.size());
    auto blocks_list = std::make_shared<std::vector<InputSlice>>(
        partition.blocks_of(block_items));

    auto blocks = std::make_shared<sim::Channel<InputSlice>>(sim);
    channels_.push_back(blocks);  // keep alive until the job completes
    const int cpu_workers = st.cfg.use_cpu ? node.cpu().cores() : 0;
    const int gpu_cards =
        (st.cfg.use_gpu && node.gpu_count() > 0) ? node.gpu_count() : 0;
    const int gpu_workers = gpu_cards * st.gpu_streams[ctx_.rk()];
    PRS_REQUIRE(cpu_workers + gpu_workers > 0,
                "dynamic scheduling needs at least one device");
    auto live = std::make_shared<int>(cpu_workers + gpu_workers);
    sim::Promise<sim::Unit> all_done(sim);
    for (int w = 0; w < cpu_workers; ++w) {
      sim.spawn(
          cpu_block_worker(st, node, batch_, *blocks, live, all_done));
    }
    for (int card = 0; card < gpu_cards; ++card) {
      for (int w = 0; w < st.gpu_streams[ctx_.rk()]; ++w) {
        sim.spawn(gpu_block_worker(st, node, batch_, *blocks, card, w, live,
                                   all_done));
      }
    }
    sim.spawn(block_dispatcher(sim, st, std::move(blocks_list), *blocks));
    return all_done.get_future();
  }

  /// Barrier over this node's asynchronous map work (static mode).
  sim::Future<sim::Unit> barrier() {
    return sim::when_all(ctx_.sim(), batch_.futures);
  }

  /// Intermediate data in GPU memory is copied back to CPU memory after
  /// all local map tasks finish (§III.A.2): emitted pairs plus per-item
  /// intermediate rows. With several cards the transfers run in parallel
  /// over each card's own PCI-E link.
  sim::Future<sim::Unit> copy_back() {
    const auto& spec = ctx_.spec();
    FatNode& node = ctx_.node();
    const double d2h_bytes =
        static_cast<double>(batch_.gpu_pairs) * spec.pair_bytes +
        static_cast<double>(batch_.gpu_items) * spec.gpu_item_d2h_bytes;
    std::vector<sim::Future<sim::Unit>> copies;
    if (d2h_bytes > 0.0 && node.gpu_count() > 0) {
      const double per_card =
          d2h_bytes / static_cast<double>(node.gpu_count());
      for (int g = 0; g < node.gpu_count(); ++g) {
        copies.push_back(node.gpu(g).default_stream().memcpy_d2h(per_card));
      }
    }
    return sim::when_all(ctx_.sim(), copies);
  }

  /// Host-side key/value handling cost (emit buffers, local sort/merge).
  double host_merge_cost(std::size_t node_items) const {
    return static_cast<double>(node_items) * calib::kPrsPerItemOverhead;
  }

  /// Records the phase span and folds this node's time into the job max.
  void finish(double t0, std::size_t node_items) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.map_time = std::max(st.map_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(
          ctx_.runner_track, "map", "phase", t0, now,
          {obs::arg("items", static_cast<std::uint64_t>(node_items)),
           obs::arg("gpu_items", batch_.gpu_items)});
    }
  }

 private:
  StageContext<K, V>& ctx_;
  NodeMapBatch<K, V> batch_;
  // One channel per dynamically dispatched partition; workers may still
  // hold references when the partition loop moves on, so channels live as
  // long as the stage.
  std::vector<std::shared_ptr<sim::Channel<InputSlice>>> channels_;
};

// -- shuffle stage ------------------------------------------------------------

/// Local combine (the paper's optional combiner(), Table 1) followed by
/// bucketing: pairs with the same key land on hash(key) % destinations.
template <typename K, typename V>
class ShuffleStage {
 public:
  explicit ShuffleStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  /// One message per destination: the cluster's ranks, or the tolerant
  /// path's alive set.
  std::vector<simnet::Message> prepare(NodeMapBatch<K, V>& batch,
                                       std::size_t dests) {
    auto& st = *ctx_.st;
    const auto& spec = ctx_.spec();
    std::vector<PairRun<K, V>*> runs;
    for (auto& e : batch.emitters) {
      st.intermediate_pairs += e.size();
      runs.push_back(&e.pairs());
    }
    // Without the combiner every raw emitted pair goes on the wire; the
    // reduce stage does all the merging.
    auto buckets = fold_by_destination(spec, spec.local_combine, runs, dests);
    std::vector<simnet::Message> outbound;
    outbound.reserve(dests);
    for (auto& bucket : buckets) {
      auto payload = std::make_shared<PairRun<K, V>>(std::move(bucket));
      const double bytes =
          static_cast<double>(payload->size()) * spec.pair_bytes;
      outbound.emplace_back(bytes, std::move(payload));
    }
    if (ctx_.tr != nullptr) {
      auto& h = ctx_.tr->metrics().histogram(
          "shuffle.msg_bytes", obs::geometric_buckets(64.0, 4.0, 16));
      for (const auto& m : outbound) h.observe(m.bytes);
    }
    return outbound;
  }

  void finish(double t0) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.shuffle_time = std::max(st.shuffle_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(ctx_.runner_track, "shuffle", "phase", t0, now);
    }
  }

 private:
  StageContext<K, V>& ctx_;
};

// -- reduce stage -------------------------------------------------------------

/// Merges inbound shuffle payloads and charges the reduce tasks on the
/// devices, split like the map stage. GPU reduce work is spread across all
/// cards (each with its own PCI-E link), mirroring the map-stage D2H path.
template <typename K, typename V>
class ReduceStage {
 public:
  explicit ReduceStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  /// Folds the inbound shuffle payloads, in message order, into this
  /// node's reduced pairs (distinct keys, ascending).
  PairRun<K, V> merge(std::vector<simnet::Message>& inbound,
                      std::size_t& reduce_pairs) {
    using Payload = std::shared_ptr<PairRun<K, V>>;
    std::vector<PairRun<K, V>*> runs;
    reduce_pairs = 0;
    for (auto& m : inbound) {
      if (!m.has_payload()) continue;
      runs.push_back(m.template payload_as<Payload>().get());
      reduce_pairs += runs.back()->size();
    }
    return std::move(fold_by_destination(ctx_.spec(), true, runs, 1)[0]);
  }

  std::vector<sim::Future<sim::Unit>> submit_device_tasks(
      std::size_t reduce_pairs) {
    auto& st = *ctx_.st;
    const auto& spec = ctx_.spec();
    FatNode& node = ctx_.node();
    std::vector<sim::Future<sim::Unit>> futs;
    if (reduce_pairs == 0) return futs;
    const auto cpu_pairs = static_cast<double>(reduce_pairs) *
                           st.cpu_fraction[ctx_.rk()];
    const double gpu_pairs = static_cast<double>(reduce_pairs) - cpu_pairs;
    if (cpu_pairs > 0.0) {
      simdev::CpuTask t;
      t.name = spec.name + ":reduce:cpu";
      t.workload.flops = cpu_pairs * spec.reduce_flops_per_pair;
      t.workload.mem_traffic = cpu_pairs * spec.pair_bytes;
      t.compute_efficiency = spec.efficiency.cpu_compute;
      t.memory_efficiency = spec.efficiency.cpu_memory;
      futs.push_back(node.cpu().submit(std::move(t)));
      ++st.reduce_tasks;
    }
    if (gpu_pairs > 0.0 && node.gpu_count() > 0) {
      // One reduce task per card so multi-GPU nodes use every card's
      // compute and PCI-E link, not just card 0's.
      const double per_card =
          gpu_pairs / static_cast<double>(node.gpu_count());
      for (int g = 0; g < node.gpu_count(); ++g) {
        auto& stream = node.gpu(g).default_stream();
        // Reduce input starts in CPU memory after the shuffle: stage it.
        futs.push_back(stream.memcpy_h2d(per_card * spec.pair_bytes));
        simdev::KernelDesc k;
        k.name = spec.name + ":reduce:gpu";
        k.workload.flops = per_card * spec.reduce_flops_per_pair;
        k.workload.mem_traffic = per_card * spec.pair_bytes;
        k.compute_efficiency = spec.efficiency.gpu_compute;
        k.memory_efficiency = spec.efficiency.gpu_memory;
        futs.push_back(stream.launch(std::move(k)));
        futs.push_back(stream.memcpy_d2h(per_card * spec.pair_bytes));
        ++st.reduce_tasks;
      }
    }
    return futs;
  }

  void finish(double t0, std::size_t reduce_pairs) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.reduce_time = std::max(st.reduce_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(
          ctx_.runner_track, "reduce", "phase", t0, now,
          {obs::arg("pairs", static_cast<std::uint64_t>(reduce_pairs))});
    }
  }

 private:
  StageContext<K, V>& ctx_;
};

// -- gather stage -------------------------------------------------------------

/// Ships this node's reduced partition to the master and, on the master,
/// merges the gathered partitions into the final output (shuffle
/// guarantees disjoint keys across nodes).
template <typename K, typename V>
class GatherStage {
 public:
  explicit GatherStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  simnet::Message pack(PairRun<K, V>&& reduced) {
    const auto& spec = ctx_.spec();
    auto payload = std::make_shared<PairRun<K, V>>(std::move(reduced));
    const double bytes =
        static_cast<double>(payload->size()) * spec.pair_bytes;
    return simnet::Message{bytes, std::move(payload)};
  }

  void unpack_on_master(std::vector<simnet::Message>& gathered) {
    auto& st = *ctx_.st;
    const auto& spec = ctx_.spec();
    using Payload = std::shared_ptr<PairRun<K, V>>;
    for (auto& m : gathered) {
      if (!m.has_payload()) continue;
      for (auto& [k, v] : *m.template payload_as<Payload>()) {
        st.final_output.emplace(
            k, spec.finalize ? spec.finalize(k, std::move(v))
                             : std::move(v));
      }
    }
  }

  void finish(double t0) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.gather_time = std::max(st.gather_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(ctx_.runner_track, "gather", "phase", t0, now);
    }
  }

 private:
  StageContext<K, V>& ctx_;
};

// -- run accounting -----------------------------------------------------------

/// Cluster-wide counter snapshot; run_job diffs two of these so a job's
/// stats are its own even when the simulator clock keeps running across
/// jobs (iterative drivers).
struct ClusterCounters {
  double cpu_busy = 0.0, gpu_busy = 0.0;
  double cpu_flops = 0.0, gpu_flops = 0.0;
  double pcie = 0.0, net = 0.0;
  std::vector<double> node_cpu_busy, node_gpu_busy;
};

inline ClusterCounters snapshot_counters(Cluster& cluster) {
  ClusterCounters c;
  c.cpu_busy = cluster.total_cpu_busy();
  c.gpu_busy = cluster.total_gpu_busy();
  c.cpu_flops = cluster.total_cpu_flops();
  c.gpu_flops = cluster.total_gpu_flops();
  c.pcie = cluster.total_pcie_bytes();
  c.net = cluster.fabric().bytes_sent();
  for (int r = 0; r < cluster.size(); ++r) {
    c.node_cpu_busy.push_back(cluster.node(r).cpu_busy());
    c.node_gpu_busy.push_back(cluster.node(r).gpu_busy());
  }
  return c;
}

/// Stats of one job: cluster counters since `c0` plus the per-job state.
template <typename K, typename V>
JobStats collect_stats(Cluster& cluster, const ClusterCounters& c0,
                       const JobState<K, V>& st, double elapsed) {
  JobStats s;
  s.elapsed = elapsed;
  s.cpu_busy = cluster.total_cpu_busy() - c0.cpu_busy;
  s.gpu_busy = cluster.total_gpu_busy() - c0.gpu_busy;
  s.cpu_flops = cluster.total_cpu_flops() - c0.cpu_flops;
  s.gpu_flops = cluster.total_gpu_flops() - c0.gpu_flops;
  s.pcie_bytes = cluster.total_pcie_bytes() - c0.pcie;
  s.network_bytes = cluster.fabric().bytes_sent() - c0.net;
  s.map_tasks = st.map_tasks;
  s.reduce_tasks = st.reduce_tasks;
  s.intermediate_pairs = st.intermediate_pairs;
  s.startup_time = st.startup_time;
  s.map_time = st.map_time;
  s.shuffle_time = st.shuffle_time;
  s.reduce_time = st.reduce_time;
  s.gather_time = st.gather_time;
  return s;
}

/// Per-node observed busy times since `c0`, for SchedulePolicy::observe().
inline JobFeedback collect_feedback(Cluster& cluster,
                                    const ClusterCounters& c0,
                                    const std::vector<double>& cpu_fraction,
                                    double elapsed) {
  JobFeedback fb;
  fb.elapsed = elapsed;
  for (int r = 0; r < cluster.size(); ++r) {
    const auto rk = static_cast<std::size_t>(r);
    NodeFeedback nf;
    nf.rank = r;
    nf.cpu_fraction = cpu_fraction[rk];
    nf.cpu_busy = cluster.node(r).cpu_busy() - c0.node_cpu_busy[rk];
    nf.gpu_busy = cluster.node(r).gpu_busy() - c0.node_gpu_busy[rk];
    nf.cpu_cores = cluster.node(r).cpu().cores();
    nf.gpu_cards = cluster.node(r).gpu_count();
    fb.nodes.push_back(nf);
  }
  return fb;
}

/// Job-level metrics counters (no-op when tracing is disabled).
template <typename K, typename V>
void record_job_metrics(sim::Simulator& sim, const JobState<K, V>& st,
                        double elapsed) {
  obs::TraceRecorder* tr = sim.tracer();
  if (tr == nullptr || !tr->enabled()) return;
  auto& m = tr->metrics();
  m.counter("job.runs").increment();
  m.counter("job.map_tasks").add(static_cast<double>(st.map_tasks));
  m.counter("job.reduce_tasks").add(static_cast<double>(st.reduce_tasks));
  m.counter("job.intermediate_pairs")
      .add(static_cast<double>(st.intermediate_pairs));
  m.counter("job.virtual_seconds").add(elapsed);
}

}  // namespace detail
}  // namespace prs::core
