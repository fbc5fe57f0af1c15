// Stage objects of the PRS execution pipeline (paper §III.A.2):
// map -> combine -> shuffle -> reduce -> gather, one instance per node per
// job, composed by the job graph (core/job_graph.hpp), whose nodes take a
// faulted form when the job has a fault injector.
//
// Each stage owns its logic, accounting, and tracing/metrics sites; the
// co_await sites stay in the graph's node coroutines, so stages stay plain
// (unit-sized, testable) objects. The only auxiliary processes are the
// dynamic-mode device daemons and the block dispatcher (§III.B.2), spawned
// by MapStage::start_dynamic.
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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/cluster.hpp"
#include "core/job.hpp"
#include "core/mapreduce_spec.hpp"
#include "core/partitioner.hpp"
#include "core/schedule_policy.hpp"
#include "exec/parallel.hpp"
#include "graph/executor.hpp"
#include "obs/trace.hpp"
#include "simtime/channel.hpp"
#include "simtime/future.hpp"
#include "simtime/process.hpp"

namespace prs::core {
namespace detail {

inline constexpr int kShuffleTag = 100;
inline constexpr int kGatherTag = 200;
inline constexpr int kDistributeTag = 300;
inline constexpr int kStateBroadcastTag = 400;

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
/// result runs the whole pending set. With a spec `cpu_map_run`, each
/// maximal run of two or more payloads of the spec's cpu_map over
/// contiguous slices goes to one hook call on the simulator thread. Of
/// the others, payloads more than twice their mean slice run one by one
/// there, then one more payload, then, with every other emitter pre-sized
/// there from that payload's pairs per input item, the rest in one
/// host-pool region (grain 1; the payloads' own regions run inline).
/// Payloads only read job state and write their own emitter, and an
/// emitter is read only after its own task's completion, so virtual time
/// and output bytes cannot depend on when or where the batch ran. Each
/// payload's exception is rethrown at its own task's completion.
template <typename K, typename V>
class PendingMaps {
 public:
  using MapFn = typename MapReduceSpec<K, V>::MapFn;

  struct Payload {
    const MapFn* fn = nullptr;
    InputSlice slice;
    Emitter<K, V>* emitter = nullptr;
    bool ran = false;
    std::exception_ptr error;
  };

  explicit PendingMaps(const MapReduceSpec<K, V>* spec = nullptr)
      : spec_(spec) {}

  /// Queues fn(slice, emitter). `fn` (a member of the spec) and `emitter`
  /// must outlive the job; the returned handle lives as long as this set.
  Payload* add(const MapFn& fn, InputSlice slice, Emitter<K, V>& emitter) {
    payloads_.push_back(Payload{&fn, slice, &emitter, false, nullptr});
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
      (*p.fn)(p.slice, *p.emitter);
    } catch (...) {
      p.error = std::current_exception();
    }
    p.ran = true;
  }

  /// Runs each maximal run of two or more contiguous cpu_map payloads of
  /// `batch` through the spec's cpu_map_run; returns the payloads left,
  /// including those of a run whose call threw (emitters cleared).
  std::vector<Payload*> run_fused(std::vector<Payload*> batch) {
    if (spec_ == nullptr || !spec_->cpu_map_run) return batch;
    std::vector<Payload*> fusable;
    std::vector<Payload*> rest;
    for (Payload* p : batch) {
      (p->fn == &spec_->cpu_map ? fusable : rest).push_back(p);
    }
    std::sort(fusable.begin(), fusable.end(), [](const auto* a, const auto* b) {
      return std::pair(a->slice.begin, a->slice.end) <
             std::pair(b->slice.begin, b->slice.end);
    });
    std::vector<MapPart<K, V>> parts;
    for (std::size_t i = 0, j = 0; i < fusable.size(); i = j) {
      j = i + 1;
      while (j < fusable.size() &&
             fusable[j]->slice.begin == fusable[j - 1]->slice.end) {
        ++j;
      }
      const auto run = std::span(fusable).subspan(i, j - i);
      if (run.size() < 2) {
        rest.push_back(run.front());
        continue;
      }
      parts.clear();
      for (const Payload* p : run) parts.push_back({p->slice, p->emitter});
      try {
        spec_->cpu_map_run(InputSlice{run.front()->slice.begin,
                                      run.back()->slice.end},
                           parts);
        for (Payload* p : run) p->ran = true;
      } catch (...) {
        for (Payload* p : run) {
          p->emitter->pairs().clear();
          rest.push_back(p);
        }
      }
    }
    return rest;
  }

  void run_pending() {
    std::vector<Payload*> batch;
    batch.swap(pending_);
    batch = run_fused(std::move(batch));
    if (batch.empty()) return;
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

  const MapReduceSpec<K, V>* spec_;
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
  // they fill, and a flush runs only this job's payloads.
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

/// Builds the JobState (level-1/level-2 scheduling decisions): each
/// node's Eq (8) split and stream count, and the capability-weighted
/// partitions. `alive` (ascending ranks) limits the decisions to those
/// ranks; the others keep capability 0, so the Partitioner gives them
/// nothing (a faulted job's blacklist).
template <typename K, typename V>
std::shared_ptr<JobState<K, V>> make_job_state(
    Cluster& cluster, const MapReduceSpec<K, V>& spec, const JobConfig& cfg,
    std::size_t n_items, SchedulePolicy* policy,
    const std::vector<int>& alive) {
  auto st = std::make_shared<JobState<K, V>>();
  st->spec = &spec;
  st->pending_maps = PendingMaps<K, V>(&spec);
  st->cfg = cfg;
  st->n_items = n_items;
  const auto nodes = static_cast<std::size_t>(cluster.size());
  const JobShape shape = job_shape(spec);
  st->cpu_fraction.resize(nodes, 0.0);
  st->gpu_streams.resize(nodes, 1);
  std::vector<double> capability(nodes, 0.0);
  for (int r : alive) {
    const auto rk = static_cast<std::size_t>(r);
    const NodeDecision d = policy->node_decision(cluster, shape, cfg, r);
    st->cpu_fraction[rk] = d.cpu_fraction;
    capability[rk] = d.capability;
  }
  st->node_partitions =
      Partitioner::partition(n_items, capability, cfg.partitions_per_node);
  for (int r : alive) {
    const auto rk = static_cast<std::size_t>(r);
    std::size_t node_items = 0;
    for (const auto& p : st->node_partitions[rk]) node_items += p.size();
    st->gpu_streams[rk] = policy->gpu_streams(cluster, shape, cfg, r,
                                              node_items,
                                              st->cpu_fraction[rk]);
  }
  return st;
}

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
  std::deque<Emitter<K, V>> emitters;  // one per map task
  std::uint64_t gpu_pairs = 0;         // pairs produced on the GPU
  std::uint64_t gpu_items = 0;         // input items mapped on GPU
};

/// Late-bound executor handle for the failure path: the body wrappers are
/// built while the graph is, before the executor exists.
struct GraphFailBox {
  graph::GraphExecutor* exec = nullptr;
};

/// Wraps a functional payload so a throw is recorded against its graph
/// node (cancelling all pending nodes) before propagating out of the
/// device worker — first-failure propagation at the block's completion
/// time instead of an anonymous error.
inline std::function<void()> graph_wrap_body(
    std::function<void()> body, std::shared_ptr<GraphFailBox> fail,
    std::string node_name) {
  if (!body) return body;
  return [body = std::move(body), fail = std::move(fail),
          node_name = std::move(node_name)] {
    try {
      body();
    } catch (...) {
      if (fail->exec != nullptr) {
        fail->exec->fail(std::current_exception(), node_name);
      }
      throw;
    }
  };
}

/// The map function a device runs on `slice`: the real one in functional
/// mode, the shape-only stand-in otherwise (empty: nothing to run).
template <typename K, typename V>
const typename MapReduceSpec<K, V>::MapFn& map_fn(
    const MapReduceSpec<K, V>& spec, ExecutionMode mode, bool gpu) {
  if (mode != ExecutionMode::kFunctional) return spec.modeled_map;
  return gpu ? spec.gpu_map_or_default() : spec.cpu_map;
}

/// The timed CPU map task of `slice`, without a payload.
template <typename K, typename V>
simdev::CpuTask cpu_map_task(const MapReduceSpec<K, V>& spec,
                             InputSlice slice) {
  const auto items = static_cast<double>(slice.size());
  simdev::CpuTask t;
  t.name = spec.name + ":map:cpu";
  t.workload.flops = items * spec.cpu_flops_per_item;
  t.workload.mem_traffic = items * spec.cpu_traffic_per_item();
  t.compute_efficiency = spec.efficiency.cpu_compute;
  t.memory_efficiency = spec.efficiency.cpu_memory;
  return t;
}

/// The timed GPU map kernel of `slice`, without a payload.
template <typename K, typename V>
simdev::KernelDesc gpu_map_kernel(const MapReduceSpec<K, V>& spec,
                                  InputSlice slice) {
  const auto items = static_cast<double>(slice.size());
  simdev::KernelDesc k;
  k.name = spec.name + ":map:gpu";
  k.workload.flops = items * spec.gpu_flops_per_item;
  k.workload.mem_traffic = items * spec.gpu_traffic_per_item();
  k.compute_efficiency = spec.efficiency.gpu_compute;
  k.memory_efficiency = spec.efficiency.gpu_memory;
  return k;
}

/// Builds the timed CPU map task for `slice`. Its payload, emitting into a
/// fresh emitter owned by `batch`, joins the job's pending set; a throw is
/// recorded against graph node `node_name`.
template <typename K, typename V>
simdev::CpuTask make_cpu_map_task(JobState<K, V>& st,
                                  NodeMapBatch<K, V>& batch, InputSlice slice,
                                  std::shared_ptr<GraphFailBox> fail,
                                  std::string node_name) {
  simdev::CpuTask t = cpu_map_task(*st.spec, slice);
  batch.emitters.emplace_back();
  const auto& fn = map_fn(*st.spec, st.cfg.mode, /*gpu=*/false);
  if (fn) {
    auto* pending = &st.pending_maps;
    auto* p = pending->add(fn, slice, batch.emitters.back());
    t.body = graph_wrap_body([pending, p] { pending->complete(*p); },
                             std::move(fail), std::move(node_name));
  }
  return t;
}

/// Builds the timed GPU map kernel for `slice` (payload as above).
template <typename K, typename V>
simdev::KernelDesc make_gpu_map_kernel(JobState<K, V>& st,
                                       NodeMapBatch<K, V>& batch,
                                       InputSlice slice,
                                       std::shared_ptr<GraphFailBox> fail,
                                       std::string node_name) {
  simdev::KernelDesc k = gpu_map_kernel(*st.spec, slice);
  batch.emitters.emplace_back();
  Emitter<K, V>* emitter = &batch.emitters.back();
  NodeMapBatch<K, V>* b = &batch;
  const auto& fn = map_fn(*st.spec, st.cfg.mode, /*gpu=*/true);
  if (fn) {
    auto* pending = &st.pending_maps;
    auto* p = pending->add(fn, slice, *emitter);
    k.body = graph_wrap_body(
        [pending, p, emitter, b] {
          pending->complete(*p);
          b->gpu_pairs += emitter->size();
        },
        std::move(fail), std::move(node_name));
  }
  return k;
}

/// Dynamic-mode CPU worker: polls blocks whenever its core frees up. The
/// round's payload failures are recorded against its graph node.
template <typename K, typename V>
sim::Process cpu_block_worker(JobState<K, V>& st, FatNode& node,
                              NodeMapBatch<K, V>& batch,
                              sim::Channel<InputSlice>& blocks,
                              std::shared_ptr<int> live,
                              std::shared_ptr<GraphFailBox> fail,
                              std::string node_name,
                              sim::Promise<sim::Unit> all_done) {
  for (;;) {
    auto b = co_await blocks.recv();
    if (!b) break;
    simdev::CpuTask t = make_cpu_map_task(st, batch, *b, fail, node_name);
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
                              std::shared_ptr<GraphFailBox> fail,
                              std::string node_name,
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
    simdev::KernelDesc k = make_gpu_map_kernel(st, batch, *b, fail, node_name);
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
inline sim::Process block_dispatcher(
    sim::Simulator& sim, std::shared_ptr<std::vector<InputSlice>> list,
    sim::Channel<InputSlice>& blocks) {
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

  /// Dynamic dispatch of one partition: spawns the per-device block
  /// workers and the serial dispatcher; the returned future resolves when
  /// every worker has drained the channel and finished. A payload failure
  /// is recorded against the round's graph node `node_name`.
  sim::Future<sim::Unit> start_dynamic(const InputSlice& partition,
                                       std::shared_ptr<GraphFailBox> fail,
                                       std::string node_name) {
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
      sim.spawn(cpu_block_worker(st, node, batch_, *blocks, live, fail,
                                 node_name, all_done));
    }
    for (int card = 0; card < gpu_cards; ++card) {
      for (int w = 0; w < st.gpu_streams[ctx_.rk()]; ++w) {
        sim.spawn(gpu_block_worker(st, node, batch_, *blocks, card, w, live,
                                   fail, node_name, all_done));
      }
    }
    sim.spawn(block_dispatcher(sim, std::move(blocks_list), *blocks));
    return all_done.get_future();
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

  /// One message per destination: the ranks the job runs on (a faulted
  /// job's alive set).
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

/// The timed CPU reduce task over `pairs` key/value pairs.
template <typename K, typename V>
simdev::CpuTask reduce_cpu_task(const MapReduceSpec<K, V>& spec,
                                double pairs) {
  simdev::CpuTask t;
  t.name = spec.name + ":reduce:cpu";
  t.workload.flops = pairs * spec.reduce_flops_per_pair;
  t.workload.mem_traffic = pairs * spec.pair_bytes;
  t.compute_efficiency = spec.efficiency.cpu_compute;
  t.memory_efficiency = spec.efficiency.cpu_memory;
  return t;
}

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

  /// Submits the reduce tasks, split CPU/GPU by the node's p. With `est`,
  /// adds their modeled durations (plus the GPU share's PCI-E staging) to
  /// it: a safe over-estimate for a faulted reduce's deadline.
  std::vector<sim::Future<sim::Unit>> submit_device_tasks(
      std::size_t reduce_pairs, double* est = nullptr) {
    auto& st = *ctx_.st;
    const auto& spec = ctx_.spec();
    FatNode& node = ctx_.node();
    std::vector<sim::Future<sim::Unit>> futs;
    if (reduce_pairs == 0) return futs;
    const auto cpu_pairs = static_cast<double>(reduce_pairs) *
                           st.cpu_fraction[ctx_.rk()];
    const double gpu_pairs = static_cast<double>(reduce_pairs) - cpu_pairs;
    if (cpu_pairs > 0.0) {
      simdev::CpuTask t = reduce_cpu_task(spec, cpu_pairs);
      if (est != nullptr) *est += node.cpu().task_duration(t);
      futs.push_back(node.cpu().submit(std::move(t)));
      ++st.reduce_tasks;
    }
    if (gpu_pairs > 0.0 && node.gpu_count() > 0) {
      // One reduce task per card so multi-GPU nodes use every card's
      // compute and PCI-E link, not just card 0's.
      const double per_card =
          gpu_pairs / static_cast<double>(node.gpu_count());
      for (int g = 0; g < node.gpu_count(); ++g) {
        auto& gpu = node.gpu(g);
        auto& stream = gpu.default_stream();
        // Reduce input starts in CPU memory after the shuffle: stage it.
        futs.push_back(stream.memcpy_h2d(per_card * spec.pair_bytes));
        simdev::KernelDesc k;
        k.name = spec.name + ":reduce:gpu";
        k.workload.flops = per_card * spec.reduce_flops_per_pair;
        k.workload.mem_traffic = per_card * spec.pair_bytes;
        k.compute_efficiency = spec.efficiency.gpu_compute;
        k.memory_efficiency = spec.efficiency.gpu_memory;
        if (est != nullptr) {
          *est += gpu.kernel_duration(k);
          if (gpu.spec().pcie_bandwidth > 0.0) {
            *est += 2.0 * per_card * spec.pair_bytes /
                    gpu.spec().pcie_bandwidth;
          }
        }
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
