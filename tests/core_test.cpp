// Tests for the PRS core runtime: input slicing, the two-level scheduler,
// the full map/combine/shuffle/reduce/gather pipeline on simulated clusters,
// scheduling modes, backend selection, and the iterative driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/iterative.hpp"
#include "core/job_runner.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"

namespace prs::core {
namespace {

// -- InputSlice -----------------------------------------------------------------

TEST(InputSlice, SplitAtFraction) {
  InputSlice s{0, 100};
  auto [head, tail] = s.split_at_fraction(0.25);
  EXPECT_EQ(head.begin, 0u);
  EXPECT_EQ(head.end, 25u);
  EXPECT_EQ(tail.begin, 25u);
  EXPECT_EQ(tail.end, 100u);
  auto [all, none] = s.split_at_fraction(1.0);
  EXPECT_EQ(all.size(), 100u);
  EXPECT_TRUE(none.empty());
  EXPECT_THROW(s.split_at_fraction(1.5), InvalidArgument);
}

TEST(InputSlice, SplitRoundsToItems) {
  InputSlice s{10, 13};  // 3 items
  auto [head, tail] = s.split_at_fraction(0.5);
  EXPECT_EQ(head.size() + tail.size(), 3u);
  EXPECT_EQ(head.end, tail.begin);
}

TEST(InputSlice, BlocksCoverExactlyWithoutEmpties) {
  InputSlice s{5, 27};  // 22 items
  for (std::size_t n : {1u, 2u, 3u, 7u, 22u, 50u}) {
    auto bs = s.blocks(n);
    EXPECT_EQ(bs.size(), std::min<std::size_t>(n, 22));
    std::size_t cursor = 5;
    for (const auto& b : bs) {
      EXPECT_EQ(b.begin, cursor);
      EXPECT_FALSE(b.empty());
      cursor = b.end;
    }
    EXPECT_EQ(cursor, 27u);
  }
}

TEST(InputSlice, BlocksOfFixedSize) {
  InputSlice s{0, 10};
  auto bs = s.blocks_of(3);
  ASSERT_EQ(bs.size(), 4u);
  EXPECT_EQ(bs[3].size(), 1u);
  EXPECT_THROW(s.blocks_of(0), InvalidArgument);
}

TEST(InputSlice, EmptySliceHasNoBlocks) {
  InputSlice s{4, 4};
  EXPECT_TRUE(s.blocks(3).empty());
  EXPECT_TRUE(s.blocks_of(2).empty());
}

// -- toy job -----------------------------------------------------------------

/// Toy SPMD app: item i emits (i % kKeys, 1); the reduced output counts
/// items per residue class — exact, order-independent ground truth.
constexpr int kKeys = 5;

MapReduceSpec<int, long> toy_spec(double ai = 50.0, bool cached = false) {
  MapReduceSpec<int, long> spec;
  spec.name = "toy-count";
  spec.cpu_map = [](const InputSlice& s, Emitter<int, long>& e) {
    // Pre-aggregate per task (like the paper's combiner-style mappers):
    // at most kKeys pairs per map task regardless of slice size.
    long counts[kKeys] = {};
    for (std::size_t i = s.begin; i < s.end; ++i) counts[i % kKeys]++;
    for (int k = 0; k < kKeys; ++k) {
      if (counts[k] > 0) e.emit(k, counts[k]);
    }
  };
  spec.combine = [](const long& a, const long& b) { return a + b; };
  spec.cpu_flops_per_item = 100.0;
  spec.gpu_flops_per_item = 100.0;
  spec.ai_cpu = ai;
  spec.ai_gpu = ai;
  spec.gpu_data_cached = cached;
  spec.item_bytes = 8.0;
  spec.pair_bytes = 16.0;
  return spec;
}

std::map<int, long> expected_counts(std::size_t n) {
  std::map<int, long> out;
  for (std::size_t i = 0; i < n; ++i) out[static_cast<int>(i % kKeys)]++;
  return out;
}

TEST(RunJob, SingleNodeProducesExactCounts) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  auto res = run_job(cluster, spec, JobConfig{}, 1000);
  EXPECT_EQ(res.output, expected_counts(1000));
  EXPECT_GT(res.stats.elapsed, 0.0);
}

TEST(RunJob, MultiNodeClustersAgreeWithGroundTruth) {
  for (int nodes : {2, 3, 4, 8}) {
    sim::Simulator simu;
    Cluster cluster(simu, nodes, NodeConfig{});
    auto spec = toy_spec();
    auto res = run_job(cluster, spec, JobConfig{}, 3000);
    EXPECT_EQ(res.output, expected_counts(3000)) << nodes << " nodes";
  }
}

TEST(RunJob, DynamicSchedulingSameResultsAsStatic) {
  sim::Simulator simu;
  Cluster cluster(simu, 3, NodeConfig{});
  auto spec = toy_spec();
  JobConfig stat;
  stat.scheduling = SchedulingMode::kStatic;
  JobConfig dyn;
  dyn.scheduling = SchedulingMode::kDynamic;
  auto r1 = run_job(cluster, spec, stat, 2000);
  auto r2 = run_job(cluster, spec, dyn, 2000);
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.output, expected_counts(2000));
  EXPECT_GT(r2.stats.map_tasks, 0u);
}

TEST(RunJob, CpuOnlyLeavesGpuIdle) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.use_gpu = false;
  auto res = run_job(cluster, spec, cfg, 1000);
  EXPECT_EQ(res.output, expected_counts(1000));
  EXPECT_DOUBLE_EQ(res.stats.gpu_flops, 0.0);
  EXPECT_GT(res.stats.cpu_flops, 0.0);
}

TEST(RunJob, GpuOnlyLeavesCpuIdle) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.use_cpu = false;
  auto res = run_job(cluster, spec, cfg, 1000);
  EXPECT_EQ(res.output, expected_counts(1000));
  EXPECT_DOUBLE_EQ(res.stats.cpu_flops, 0.0);
  EXPECT_GT(res.stats.gpu_flops, 0.0);
}

TEST(RunJob, RejectsNoBackendsAndEmptyInput) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.use_cpu = false;
  cfg.use_gpu = false;
  EXPECT_THROW(run_job(cluster, spec, cfg, 100), InvalidArgument);
  EXPECT_THROW(run_job(cluster, spec, JobConfig{}, 0), InvalidArgument);
}

TEST(RunJob, MapFlopsAccountedOnDevices) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  auto res = run_job(cluster, spec, JobConfig{}, 4000);
  const double map_flops = 4000 * 100.0;
  // Total device flops = map flops + small reduce-stage flops.
  EXPECT_GE(res.stats.total_flops(), map_flops);
  EXPECT_LT(res.stats.total_flops(), map_flops * 1.05);
}

TEST(RunJob, FractionOverrideShiftsWork) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  JobConfig mostly_cpu;
  mostly_cpu.cpu_fraction_override = 0.9;
  JobConfig mostly_gpu;
  mostly_gpu.cpu_fraction_override = 0.1;
  auto r1 = run_job(cluster, spec, mostly_cpu, 10000);
  auto r2 = run_job(cluster, spec, mostly_gpu, 10000);
  EXPECT_GT(r1.stats.cpu_flops, r2.stats.cpu_flops);
  EXPECT_LT(r1.stats.gpu_flops, r2.stats.gpu_flops);
  EXPECT_EQ(r1.output, r2.output);
  // The shares match the override within block-rounding tolerance.
  EXPECT_NEAR(r1.stats.cpu_flops / (10000 * 100.0), 0.9, 0.02);
}

TEST(RunJob, AnalyticFractionAppliedByDefault) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec(/*ai=*/500.0, /*cached=*/true);
  const double p = cluster.scheduler()
                       .workload_split(500.0, /*staged=*/false)
                       .cpu_fraction;
  auto res = run_job(cluster, spec, JobConfig{}, 20000);
  EXPECT_NEAR(res.stats.cpu_flops / (20000 * 100.0), p, 0.02);
}

TEST(RunJob, InputDistributionCostsNetworkTime) {
  auto elapsed_with = [&](bool distribute) {
    sim::Simulator simu;
    Cluster cluster(simu, 4, NodeConfig{});
    auto spec = toy_spec();
    spec.item_bytes = 1e6;  // make staging expensive
    JobConfig cfg;
    cfg.time_input_distribution = distribute;
    auto res = run_job(cluster, spec, cfg, 1000);
    return std::pair(res.stats.elapsed, res.stats.network_bytes);
  };
  auto [t_no, b_no] = elapsed_with(false);
  auto [t_yes, b_yes] = elapsed_with(true);
  EXPECT_GT(t_yes, t_no);
  EXPECT_GT(b_yes, b_no);
}

TEST(RunJob, CachedGpuDataSkipsPerJobStaging) {
  auto pcie_bytes = [&](bool cached) {
    sim::Simulator simu;
    Cluster cluster(simu, 1, NodeConfig{});
    auto spec = toy_spec(50.0, cached);
    auto res = run_job(cluster, spec, JobConfig{}, 5000);
    return res.stats.pcie_bytes;
  };
  // Uncached jobs stage map input over PCI-E; cached jobs only move the
  // small intermediate/reduce traffic.
  EXPECT_GT(pcie_bytes(false), 4.0 * pcie_bytes(true));
}

TEST(RunJob, DeterministicAcrossRuns) {
  auto one = [] {
    sim::Simulator simu;
    Cluster cluster(simu, 3, NodeConfig{});
    auto spec = toy_spec();
    auto res = run_job(cluster, spec, JobConfig{}, 2500);
    return std::tuple(res.stats.elapsed, res.stats.map_tasks,
                      res.output);
  };
  EXPECT_EQ(one(), one());
}

TEST(RunJob, DisablingLocalCombinerKeepsResultsButCostsNetwork) {
  // The paper's combiner() is optional (Table 1): without it every raw
  // pair is shuffled and the reduce stage does all merging.
  auto run = [](bool combine_locally) {
    sim::Simulator simu;
    Cluster cluster(simu, 4, NodeConfig{});
    auto spec = toy_spec();
    spec.local_combine = combine_locally;
    spec.cpu_map = [](const InputSlice& s, Emitter<int, long>& e) {
      for (std::size_t i = s.begin; i < s.end; ++i) {
        e.emit(static_cast<int>(i % kKeys), 1);  // raw, un-aggregated
      }
    };
    return run_job(cluster, spec, JobConfig{}, 4000);
  };
  auto with = run(true);
  auto without = run(false);
  EXPECT_EQ(with.output, expected_counts(4000));
  EXPECT_EQ(without.output, expected_counts(4000));
  // Raw pairs on the wire: far more network traffic and reduce input.
  EXPECT_GT(without.stats.network_bytes, 5.0 * with.stats.network_bytes);
}

TEST(RunJob, ModeledModeChargesTimeWithoutPayloads) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.mode = ExecutionMode::kModeled;
  auto res = run_job(cluster, spec, cfg, 100000);
  EXPECT_TRUE(res.output.empty());  // no modeled_map given
  EXPECT_GT(res.stats.elapsed, 0.0);
  EXPECT_GT(res.stats.total_flops(), 0.0);  // time still charged
}

TEST(RunJob, ModeledMapPreservesShape) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  spec.modeled_map = [](const InputSlice&, Emitter<int, long>& e) {
    for (int k = 0; k < kKeys; ++k) e.emit(k, 0);
  };
  JobConfig cfg;
  cfg.mode = ExecutionMode::kModeled;
  auto res = run_job(cluster, spec, cfg, 10000);
  EXPECT_EQ(res.output.size(), static_cast<std::size_t>(kKeys));
}

TEST(RunJob, MoreNodesShortenElapsedTime) {
  auto elapsed = [](int nodes) {
    sim::Simulator simu;
    Cluster cluster(simu, nodes, NodeConfig{});
    auto spec = toy_spec();
    JobConfig cfg;
    cfg.charge_job_startup = false;  // isolate the compute scaling
    auto res = run_job(cluster, spec, cfg, 400000);
    return res.stats.elapsed;
  };
  const double t1 = elapsed(1);
  const double t4 = elapsed(4);
  EXPECT_LT(t4, t1);
}

TEST(RunJob, FinalizeTransformsValues) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  spec.finalize = [](const int&, long v) { return v * 10; };
  auto res = run_job(cluster, spec, JobConfig{}, 100);
  auto want = expected_counts(100);
  for (auto& [k, v] : want) v *= 10;
  EXPECT_EQ(res.output, want);
}

// -- batched map payloads ------------------------------------------------------

/// Sets the host pool size for one scope, then restores the default.
struct ScopedPoolSize {
  explicit ScopedPoolSize(int n) { exec::ThreadPool::instance().configure(n); }
  ~ScopedPoolSize() { exec::ThreadPool::instance().configure(0); }
};

/// toy_spec whose payload opens its own pool region, as the apps' kernels
/// do: run one at a time, every map task would cost a top-level region.
/// Blocks are modeled long enough that dynamic dispatch keeps every
/// device busy at once, as it does on real inputs.
MapReduceSpec<int, long> pooled_toy_spec() {
  auto spec = toy_spec();
  spec.cpu_flops_per_item = 1e6;
  spec.gpu_flops_per_item = 1e6;
  spec.cpu_map = [](const InputSlice& s, Emitter<int, long>& e) {
    std::vector<int> key(s.size());
    exec::parallel_for(s.begin, s.end, 16, [&](std::size_t b, std::size_t en) {
      for (std::size_t i = b; i < en; ++i) {
        key[i - s.begin] = static_cast<int>(i % kKeys);
      }
    });
    long counts[kKeys] = {};
    for (const int k : key) counts[k]++;
    for (int k = 0; k < kKeys; ++k) {
      if (counts[k] > 0) e.emit(k, counts[k]);
    }
  };
  return spec;
}

TEST(RunJob, MapPayloadsShareFewPoolRegionsAndIgnoreThreadCount) {
  constexpr std::size_t kItems = 20000;
  const auto spec = pooled_toy_spec();
  for (const auto engine : {ExecEngine::kStages, ExecEngine::kGraph}) {
    for (const auto mode :
         {SchedulingMode::kStatic, SchedulingMode::kDynamic}) {
      JobResult<int, long> at_one;
      for (const int threads : {1, 4}) {
        ScopedPoolSize pool(threads);
        sim::Simulator simu;
        Cluster cluster(simu, 2, NodeConfig{});
        JobConfig cfg;
        cfg.engine = engine;
        cfg.scheduling = mode;
        auto& host = exec::ThreadPool::instance();
        const auto before = host.stats().jobs;
        auto res = run_job(cluster, spec, cfg, kItems);
        const auto regions = host.stats().jobs - before;
        const std::string where =
            std::string(engine == ExecEngine::kGraph ? "graph" : "stages") +
            (mode == SchedulingMode::kDynamic ? "/dynamic" : "/static") +
            " threads=" + std::to_string(threads);
        EXPECT_EQ(res.output, expected_counts(kItems)) << where;
        // Unbatched, every payload opened its own region. Static dispatch
        // hands every block out before the first completes, so the job is
        // one batch: the four GPU-share blocks (one per node and
        // partition, far above the mean) run alone, then one payload, then
        // the rest in one region. Dynamic dispatch hands blocks out one by
        // one and the fast GPU streams finish them nearly one by one, so
        // its batches only span one wave of devices.
        ASSERT_GT(res.stats.map_tasks, 40u) << where;
        if (mode == SchedulingMode::kStatic) {
          EXPECT_LE(regions, 6u) << where;
        } else {
          EXPECT_LT(regions, res.stats.map_tasks) << where;
        }
        if (threads == 1) {
          at_one = res;
        } else {
          EXPECT_EQ(res.output, at_one.output) << where;
          EXPECT_EQ(res.stats.elapsed, at_one.stats.elapsed) << where;
          EXPECT_EQ(res.stats.map_tasks, at_one.stats.map_tasks) << where;
        }
      }
    }
  }
}

// -- iterative driver -----------------------------------------------------------

TEST(Iterative, RunsRequestedIterationsAndStops) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  int seen = 0;
  auto res = run_iterative<int, long>(
      cluster, spec, JobConfig{}, 1000, 10,
      [&](int iter, const std::map<int, long>& out) {
        EXPECT_EQ(iter, seen);
        EXPECT_EQ(out, expected_counts(1000));
        ++seen;
        return iter < 3;  // stop after 4 iterations
      },
      /*state_bytes=*/1024.0);
  EXPECT_EQ(res.iterations, 4);
  EXPECT_EQ(seen, 4);
  EXPECT_EQ(res.stats.iterations, 4);
}

TEST(Iterative, CachedDataStagedOnceUpFront) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  spec.item_bytes = 1000.0;
  auto res = run_iterative<int, long>(
      cluster, spec, JobConfig{}, 2000, 3,
      [](int, const std::map<int, long>&) { return true; });
  EXPECT_GT(res.staging_time, 0.0);
  // Iteration-phase PCI-E traffic excludes the map input (cached): only
  // intermediate/reduce traffic remains, far below restaging 3x input.
  EXPECT_LT(res.stats.pcie_bytes, 3 * 2000 * 1000.0 * 0.1);
}

TEST(Iterative, CachedDataMustFitGpuMemory) {
  // A C2070 has 6 GB (Table 4): caching a larger invariant data set must
  // fail loudly at staging time, not corrupt the run.
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  spec.item_bytes = 1e6;  // 1 MB/item x 10k items = 10 GB > 6 GB
  auto run = [&] {
    (void)run_iterative<int, long>(
        cluster, spec, JobConfig{}, 10000, 2,
        [](int, const std::map<int, long>&) { return true; });
  };
  EXPECT_THROW(run(), ResourceExhausted);
}

TEST(Iterative, CachedAllocationsReleasedAfterRun) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  spec.item_bytes = 1000.0;
  (void)run_iterative<int, long>(
      cluster, spec, JobConfig{}, 1000, 2,
      [](int, const std::map<int, long>&) { return true; });
  EXPECT_EQ(cluster.node(0).gpu(0).memory_used(), 0u);
}

TEST(Iterative, StartupChargedOnlyOnFirstIteration) {
  auto elapsed_for_iters = [](int iters) {
    sim::Simulator simu;
    Cluster cluster(simu, 1, NodeConfig{});
    auto spec = toy_spec(500.0, true);
    auto res = run_iterative<int, long>(
        cluster, spec, JobConfig{}, 1000, iters,
        [](int, const std::map<int, long>&) { return true; });
    return res.stats.elapsed;
  };
  const double t1 = elapsed_for_iters(1);
  const double t2 = elapsed_for_iters(2);
  // If startup were charged per iteration, t2 >= 2 * t1. It must be well
  // below that (startup dominates a tiny job).
  EXPECT_LT(t2, 1.5 * t1);
}

TEST(Iterative, PipelinedWindowRunsNextPayloadsOnlyAfterTheAdvance) {
  // At pipeline depth 2 (graph engine, static policy) two iterations share
  // one task graph, chained through iteration j's advance node, which runs
  // on_iteration. Iteration j+1's payloads read the state it updates, so
  // none may run earlier — even with four host threads running batches.
  ScopedPoolSize pool(4);
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto version = std::make_shared<std::atomic<long>>(0);
  auto spec = toy_spec(500.0, /*cached=*/true);
  // Key 0 carries the largest version any payload saw, key 1 minus the
  // smallest.
  spec.cpu_map = [version](const InputSlice&, Emitter<int, long>& e) {
    const long v = version->load();
    e.emit(0, v);
    e.emit(1, -v);
  };
  spec.combine = [](const long& a, const long& b) { return std::max(a, b); };
  JobConfig cfg;
  cfg.engine = ExecEngine::kGraph;
  cfg.pipeline_depth = 2;
  int seen = 0;
  auto res = run_iterative<int, long>(
      cluster, spec, cfg, 4000, 6,
      [&](int iter, const std::map<int, long>& out) {
        EXPECT_EQ(out.at(0), iter) << "a payload ran after its advance";
        EXPECT_EQ(-out.at(1), iter) << "a payload ran before the advance";
        version->store(iter + 1);
        ++seen;
        return true;
      },
      /*state_bytes=*/1024.0);
  EXPECT_EQ(res.iterations, 6);
  EXPECT_EQ(seen, 6);
}

// -- node-local combine and reduce merge ---------------------------------------

using StrRun = detail::PairRun<std::string, std::uint64_t>;

/// Folds in unsigned arithmetic where the order of the values shows: any
/// reordering of a key's values changes the result.
MapReduceSpec<std::string, std::uint64_t> order_sensitive_spec() {
  MapReduceSpec<std::string, std::uint64_t> spec;
  spec.name = "order-sensitive";
  spec.combine = [](const std::uint64_t& a, const std::uint64_t& b) {
    return a * 31 + b;
  };
  return spec;
}

/// Keys longer than std::string's small-string buffer.
std::string long_key(std::uint64_t id) {
  return "a-key-well-past-the-small-string-buffer-" + std::to_string(id);
}

/// Runs of random pairs whose keys repeat within and across runs; every
/// third run is empty.
std::vector<StrRun> random_runs(std::uint64_t seed, std::size_t runs,
                                std::size_t max_pairs, std::size_t keys) {
  std::mt19937_64 rng(seed);
  std::vector<StrRun> out(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    if (r % 3 == 1) continue;
    const std::size_t n = 1 + rng() % max_pairs;
    for (std::size_t i = 0; i < n; ++i) {
      out[r].emplace_back(long_key(rng() % keys), rng());
    }
  }
  return out;
}

/// The runner's combine before it folded per destination, kept as the
/// oracle: every pair inserted in emission order into one std::map, then
/// bucketed by hash(key) % dests in key order.
std::vector<StrRun> map_fold_oracle(
    const MapReduceSpec<std::string, std::uint64_t>& spec,
    std::vector<StrRun> runs, std::size_t dests) {
  std::map<std::string, std::uint64_t> acc;
  for (auto& run : runs) {
    for (auto& [k, v] : run) {
      auto it = acc.find(k);
      if (it == acc.end()) {
        acc.emplace(std::move(k), v);
      } else {
        it->second = spec.combine(it->second, v);
      }
    }
  }
  std::vector<StrRun> buckets(dests);
  for (auto& [k, v] : acc) {
    buckets[std::hash<std::string>{}(k) % dests].emplace_back(k, v);
  }
  return buckets;
}

std::vector<StrRun> fold(const MapReduceSpec<std::string, std::uint64_t>& spec,
                         bool combine, std::vector<StrRun> runs,
                         std::size_t dests) {
  std::vector<StrRun*> ptrs;
  for (auto& r : runs) ptrs.push_back(&r);
  return detail::fold_by_destination(spec, combine, ptrs, dests);
}

TEST(ShuffleCombine, MatchesTheMapFoldAtAnyDestinationAndPoolSize) {
  const auto spec = order_sensitive_spec();
  // Below one fold grain the fold runs inline; above it, on the pool.
  for (const std::size_t max_pairs : {40u, 4000u}) {
    const auto runs = random_runs(max_pairs, 12, max_pairs, 300);
    for (const std::size_t dests : {1u, 2u, 3u, 5u, 8u}) {
      const auto want = map_fold_oracle(spec, runs, dests);
      for (const int threads : {1, 2, 4}) {
        ScopedPoolSize pool(threads);
        EXPECT_EQ(fold(spec, true, runs, dests), want)
            << "max_pairs=" << max_pairs << " dests=" << dests
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShuffleCombine, WithoutCombinerKeepsRawPairsInEmissionOrder) {
  const auto spec = order_sensitive_spec();
  const auto runs = random_runs(7, 12, 4000, 300);
  for (const std::size_t dests : {1u, 3u, 8u}) {
    std::vector<StrRun> want(dests);
    for (const auto& run : runs) {
      for (const auto& kv : run) {
        want[std::hash<std::string>{}(kv.first) % dests].push_back(kv);
      }
    }
    for (const int threads : {1, 4}) {
      ScopedPoolSize pool(threads);
      EXPECT_EQ(fold(spec, false, runs, dests), want)
          << "dests=" << dests << " threads=" << threads;
    }
  }
}

TEST(ShuffleCombine, EmptyRunsGiveEmptyBuckets) {
  const auto spec = order_sensitive_spec();
  EXPECT_EQ(fold(spec, true, {}, 3), std::vector<StrRun>(3));
  EXPECT_EQ(fold(spec, true, std::vector<StrRun>(4), 5),
            std::vector<StrRun>(5));
}

TEST(ShuffleCombine, ThrowingCombinerSurfacesFromTheFoldAndTheStage) {
  ScopedPoolSize pool(4);
  auto spec = order_sensitive_spec();
  spec.combine = [](const std::uint64_t&, const std::uint64_t&)
      -> std::uint64_t { throw std::runtime_error("combiner failed"); };
  EXPECT_THROW(fold(spec, true, random_runs(3, 12, 4000, 300), 4),
               std::runtime_error);

  // The same combiner inside a job fails the job at its node-local
  // combine, on every engine.
  auto job = toy_spec();
  job.combine = [](const long&, const long&) -> long {
    throw std::runtime_error("combiner failed");
  };
  for (const auto engine : {ExecEngine::kStages, ExecEngine::kGraph}) {
    sim::Simulator simu;
    Cluster cluster(simu, 2, NodeConfig{});
    JobConfig cfg;
    cfg.engine = engine;
    try {
      (void)run_job(cluster, job, cfg, 4000);
      ADD_FAILURE() << "the combiner's error did not surface";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("combiner failed"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShuffleCombine, StagesGraphAndTolerantPathFoldInTheSameOrder) {
  // Each item emits one pair, so every node's combine holds more pairs
  // than one fold grain and runs on the pool; the combiner shows any
  // change in the order values reach it.
  ScopedPoolSize pool(4);
  auto spec = order_sensitive_spec();
  spec.cpu_map = [](const InputSlice& s,
                    Emitter<std::string, std::uint64_t>& e) {
    for (std::size_t i = s.begin; i < s.end; ++i) {
      e.emit(long_key(i * 7919 % 2000), i);
    }
  };
  spec.cpu_flops_per_item = 100.0;
  spec.gpu_flops_per_item = 100.0;
  spec.ai_cpu = 50.0;
  spec.ai_gpu = 50.0;
  spec.item_bytes = 8.0;
  constexpr std::size_t kItems = 60000;
  const auto run = [&](ExecEngine engine, bool tolerant) {
    sim::Simulator simu;
    Cluster cluster(simu, 4, NodeConfig{});
    fault::FaultInjector none(simu, fault::FaultPlan::parse(""), 1);
    JobConfig cfg;
    cfg.engine = engine;
    if (tolerant) cfg.faults = &none;
    return run_job(cluster, spec, cfg, kItems);
  };
  const auto stages = run(ExecEngine::kStages, false);
  const auto graph = run(ExecEngine::kGraph, false);
  const auto tolerant = run(ExecEngine::kStages, true);
  ASSERT_EQ(stages.output.size(), 2000u);
  ASSERT_GT(stages.stats.intermediate_pairs / 4, detail::kFoldGrain);
  EXPECT_EQ(graph.output, stages.output);
  EXPECT_EQ(tolerant.output, stages.output);
}

}  // namespace
}  // namespace prs::core
