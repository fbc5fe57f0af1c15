// Property-based tests (randomized + parameterized sweeps) on the system's
// key invariants:
//   * the analytic split minimizes the modeled makespan (Eq (5)'s "when
//     Tg_p ~= Tc_p, Tgc gets the minimal value");
//   * the shuffle preserves the multiset of emitted key/value pairs for
//     arbitrary random inputs on arbitrary cluster sizes;
//   * partitioning covers the input exactly under any configuration;
//   * the DES clock is monotone and every scheduled event fires, under
//     randomized workloads of interleaved processes;
//   * modeled job time scales linearly in the input (no super/sublinear
//     artifacts of the runtime bookkeeping).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "simtime/channel.hpp"
#include "simtime/process.hpp"
#include "simtime/resource.hpp"

namespace prs::core {
namespace {

// -- the analytic split is optimal -----------------------------------------------

struct SplitCase {
  double ai;
  bool cached;
};

// Names the case in its test ID and in GetParam(), e.g. "ai0p5_uncached":
// the raw-byte default would also print the struct's uninitialized
// padding.
void PrintTo(const SplitCase& c, std::ostream* os) {
  std::ostringstream ai;
  ai << c.ai;
  std::string digits = ai.str();
  std::replace(digits.begin(), digits.end(), '.', 'p');
  *os << "ai" << digits << (c.cached ? "_cached" : "_uncached");
}

class SplitOptimality : public ::testing::TestWithParam<SplitCase> {};

double modeled_elapsed(double ai, bool cached, double p_override) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, NodeConfig{});
  MapReduceSpec<int, long> spec;
  spec.name = "sweep";
  spec.cpu_map = [](const InputSlice&, Emitter<int, long>& e) {
    e.emit(0, 1);
  };
  spec.combine = [](const long& a, const long& b) { return a + b; };
  spec.cpu_flops_per_item = 1000.0;
  spec.gpu_flops_per_item = 1000.0;
  spec.ai_cpu = ai;
  spec.ai_gpu = ai;
  spec.gpu_data_cached = cached;
  spec.item_bytes = 1000.0 / ai;
  JobConfig cfg;
  cfg.mode = ExecutionMode::kModeled;
  cfg.charge_job_startup = false;
  cfg.cpu_fraction_override = p_override;
  return run_job(cluster, spec, cfg, 2000000).stats.elapsed;
}

TEST_P(SplitOptimality, AnalyticFractionBeatsCoarseSweep) {
  const auto c = GetParam();
  sim::Simulator sim;
  Cluster cluster(sim, 1, NodeConfig{});
  const double p_star =
      cluster.scheduler(0).workload_split(c.ai, !c.cached).cpu_fraction;
  const double t_star = modeled_elapsed(c.ai, c.cached, p_star);
  // No point of a coarse sweep may beat the analytic split by > 5%
  // (granularity rounding allows small wins).
  for (double p : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    const double t = modeled_elapsed(c.ai, c.cached, p);
    EXPECT_GT(t, t_star * 0.95)
        << "p=" << p << " beat the analytic p*=" << p_star;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AiRange, SplitOptimality,
    ::testing::Values(SplitCase{0.5, false}, SplitCase{2.0, false},
                      SplitCase{8.0, false}, SplitCase{50.0, true},
                      SplitCase{500.0, true}, SplitCase{6600.0, true}),
    ::testing::PrintToStringParamName());

// -- shuffle preserves the pair multiset -------------------------------------------

class ShuffleProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShuffleProperty, RandomKeyValueLoadsSurviveExactly) {
  const int nodes = GetParam();
  for (std::uint64_t seed : {1ull, 17ull, 4242ull}) {
    Rng rng(seed);
    const std::size_t n = 500 + rng.uniform_index(3000);
    const int key_space = 1 + static_cast<int>(rng.uniform_index(64));

    // Ground truth: per-key sums of deterministic pseudo-random values.
    auto value_of = [](std::size_t i) {
      return static_cast<long>((i * 2654435761u) % 1000);
    };
    auto key_of = [key_space](std::size_t i) {
      return static_cast<int>((i * 40503u) % static_cast<unsigned>(key_space));
    };
    std::map<int, long> want;
    for (std::size_t i = 0; i < n; ++i) want[key_of(i)] += value_of(i);

    MapReduceSpec<int, long> spec;
    spec.name = "shuffle-prop";
    spec.cpu_map = [=](const InputSlice& s, Emitter<int, long>& e) {
      for (std::size_t i = s.begin; i < s.end; ++i) {
        e.emit(key_of(i), value_of(i));
      }
    };
    spec.combine = [](const long& a, const long& b) { return a + b; };
    spec.cpu_flops_per_item = 10.0;
    spec.gpu_flops_per_item = 10.0;
    spec.ai_cpu = 5.0;
    spec.ai_gpu = 5.0;
    spec.item_bytes = 2.0;

    sim::Simulator sim;
    Cluster cluster(sim, nodes, NodeConfig{});
    JobConfig cfg;
    DynamicBlockPolicy dynamic;
    if (seed % 2 == 0) cfg.policy = &dynamic;
    auto res = run_job(cluster, spec, cfg, n);
    EXPECT_EQ(res.output, want) << "nodes=" << nodes << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, ShuffleProperty,
                         ::testing::Values(1, 2, 3, 5, 8));

// -- partition coverage --------------------------------------------------------------

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(PartitionProperty, EveryItemAssignedExactlyOnce) {
  const auto [nodes, parts_per_node, n_items] = GetParam();
  MapReduceSpec<int, long> spec;
  spec.name = "coverage";
  spec.cpu_map = [](const InputSlice& s, Emitter<int, long>& e) {
    // Emit each index once: the reduced sum of indices must match the
    // arithmetic series if and only if coverage is exact and disjoint.
    long sum = 0;
    for (std::size_t i = s.begin; i < s.end; ++i) {
      sum += static_cast<long>(i);
    }
    e.emit(0, sum);
    e.emit(1, static_cast<long>(s.size()));
  };
  spec.combine = [](const long& a, const long& b) { return a + b; };
  spec.cpu_flops_per_item = 10.0;
  spec.gpu_flops_per_item = 10.0;
  spec.ai_cpu = 5.0;
  spec.ai_gpu = 5.0;
  spec.item_bytes = 2.0;

  sim::Simulator sim;
  Cluster cluster(sim, nodes, NodeConfig{});
  JobConfig cfg;
  cfg.partitions_per_node = parts_per_node;
  auto res = run_job(cluster, spec, cfg, n_items);
  const auto n = static_cast<long>(n_items);
  EXPECT_EQ(res.output.at(0), n * (n - 1) / 2);
  EXPECT_EQ(res.output.at(1), n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionProperty,
    ::testing::Values(std::tuple(1, 1, 7ul), std::tuple(2, 2, 1000ul),
                      std::tuple(3, 2, 10ul), std::tuple(4, 5, 9999ul),
                      std::tuple(8, 2, 64ul), std::tuple(5, 3, 12345ul)));

// -- randomized DES stress ------------------------------------------------------------

sim::Process chaotic_worker(sim::Simulator& sim, sim::Channel<int>& in,
                            sim::Channel<int>& out, sim::Resource& res,
                            Rng& rng, int& processed) {
  for (;;) {
    auto v = co_await in.recv();
    if (!v) break;
    co_await res.acquire();
    sim::ResourceGuard g(res, 1);
    co_await sim::delay(sim, rng.uniform(0.0, 1e-3));
    ++processed;
    if (!out.closed()) out.send(*v + 1);
  }
}

TEST(DesStress, RandomPipelinesDrainCompletely) {
  for (std::uint64_t seed : {3ull, 99ull, 2026ull}) {
    Rng rng(seed);
    sim::Simulator sim;
    sim::Channel<int> stage1(sim), stage2(sim), sink(sim);
    sim::Resource res(sim, 1 + rng.uniform_index(4));
    int p1 = 0, p2 = 0;
    const int workers1 = 1 + static_cast<int>(rng.uniform_index(4));
    const int workers2 = 1 + static_cast<int>(rng.uniform_index(4));
    for (int w = 0; w < workers1; ++w) {
      sim.spawn(chaotic_worker(sim, stage1, stage2, res, rng, p1));
    }
    for (int w = 0; w < workers2; ++w) {
      sim.spawn(chaotic_worker(sim, stage2, sink, res, rng, p2));
    }
    const int n = 50 + static_cast<int>(rng.uniform_index(200));
    for (int i = 0; i < n; ++i) stage1.send(i);
    stage1.close();
    // Close stage2 once all stage-1 items are through: schedule a closer
    // process that waits for the count.
    sim.spawn([](sim::Simulator& s, sim::Channel<int>& ch, int& count,
                 int total) -> sim::Process {
      while (count < total) co_await sim::delay(s, 1e-4);
      ch.close();
    }(sim, stage2, p1, n));
    sim.run();
    EXPECT_EQ(p1, n) << "seed " << seed;
    EXPECT_EQ(p2, n) << "seed " << seed;
    EXPECT_EQ(sink.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(sim.idle());
  }
}

TEST(DesStress, ClockIsMonotoneUnderRandomScheduling) {
  Rng rng(7);
  sim::Simulator sim;
  double last_seen = -1.0;
  bool monotone = true;
  std::function<void(int)> chain = [&](int depth) {
    if (sim.now() < last_seen) monotone = false;
    last_seen = sim.now();
    if (depth <= 0) return;
    const int fanout = 1 + static_cast<int>(rng.uniform_index(3));
    for (int i = 0; i < fanout; ++i) {
      sim.schedule_after(rng.uniform(0.0, 1.0),
                         [&chain, depth] { chain(depth - 1); });
    }
  };
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(rng.uniform(0.0, 1.0), [&chain] { chain(6); });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_GT(sim.events_dispatched(), 100u);
}

// -- linear scaling of modeled time ---------------------------------------------------

TEST(ModeledScaling, ElapsedGrowsLinearlyWithInput) {
  auto elapsed = [](std::size_t n) {
    sim::Simulator sim;
    Cluster cluster(sim, 2, NodeConfig{});
    MapReduceSpec<int, long> spec;
    spec.name = "linear";
    spec.cpu_map = [](const InputSlice&, Emitter<int, long>& e) {
      e.emit(0, 1);
    };
    spec.combine = [](const long& a, const long& b) { return a + b; };
    // Enough flops per item that compute dominates the runtime's fixed
    // per-job costs; linearity is a property of the compute regime.
    spec.cpu_flops_per_item = 5000.0;
    spec.gpu_flops_per_item = 5000.0;
    spec.ai_cpu = 50.0;
    spec.ai_gpu = 50.0;
    spec.gpu_data_cached = true;
    spec.item_bytes = 100.0;
    JobConfig cfg;
    cfg.mode = ExecutionMode::kModeled;
    cfg.charge_job_startup = false;
    return run_job(cluster, spec, cfg, n).stats.elapsed;
  };
  const double t1 = elapsed(2000000);
  const double t2 = elapsed(4000000);
  const double t4 = elapsed(8000000);
  EXPECT_NEAR(t2 / t1, 2.0, 0.15);
  EXPECT_NEAR(t4 / t2, 2.0, 0.15);
}

}  // namespace
}  // namespace prs::core
