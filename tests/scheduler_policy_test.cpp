// Tests for the layered scheduler: the level-1 Partitioner, the level-2
// SchedulePolicy hierarchy, and the refactored pipeline's equivalence with
// the pre-refactor runner.
//
// The "PreRefactor" golden values were captured from the monolithic
// job_runner.hpp (before the stage/policy split) on the Table-3 C-means
// configuration; static scheduling must reproduce them exactly — the
// refactor moves code, it must not move virtual time.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/cmeans.hpp"
#include "core/cluster.hpp"
#include "core/partitioner.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_policy.hpp"

namespace {

using namespace prs;

// -- Partitioner (level-1 master task scheduler) ------------------------------

TEST(Partitioner, HomogeneousNodesSplitEqually) {
  const auto shares = core::Partitioner::node_shares(1000, {1.0, 1.0, 1.0, 1.0});
  ASSERT_EQ(shares.size(), 4u);
  std::size_t cursor = 0;
  for (const auto& s : shares) {
    EXPECT_EQ(s.begin, cursor);
    EXPECT_EQ(s.size(), 250u);
    cursor = s.end;
  }
  EXPECT_EQ(cursor, 1000u);
}

TEST(Partitioner, InhomogeneousNodesSplitByCapability) {
  // A node three times as capable gets three times the items (§III.B.3.a).
  const auto shares = core::Partitioner::node_shares(1200, {3.0, 1.0});
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0].size(), 900u);
  EXPECT_EQ(shares[1].size(), 300u);
}

TEST(Partitioner, RoundingRemainderGoesToLastNode) {
  const auto shares = core::Partitioner::node_shares(10, {1.0, 1.0, 1.0});
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares[0].size(), 3u);
  EXPECT_EQ(shares[1].size(), 3u);
  EXPECT_EQ(shares[2].size(), 4u);  // 10 - 3 - 3
  EXPECT_EQ(shares[2].end, 10u);
}

TEST(Partitioner, ZeroCapabilityNodeGetsNothing) {
  const auto parts = core::Partitioner::partition(100, {1.0, 0.0}, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].size(), 2u);  // two partitions per node
  EXPECT_TRUE(parts[1].empty());   // no empty partitions for idle nodes
}

TEST(Partitioner, AllZeroCapabilityThrows) {
  EXPECT_THROW(core::Partitioner::node_shares(100, {0.0, 0.0}), Error);
}

TEST(Partitioner, PartitionChopsEachShare) {
  const auto parts = core::Partitioner::partition(1000, {1.0, 1.0}, 2);
  ASSERT_EQ(parts.size(), 2u);
  for (const auto& node_parts : parts) {
    ASSERT_EQ(node_parts.size(), 2u);
    EXPECT_EQ(node_parts[0].size() + node_parts[1].size(), 500u);
  }
}

// -- SchedulePolicy decisions -------------------------------------------------

core::JobShape cmeans_shape(int clusters) {
  core::JobShape shape;
  shape.ai_cpu = shape.ai_gpu = apps::cmeans_arithmetic_intensity(clusters);
  shape.gpu_data_cached = true;
  shape.item_bytes = 800.0;  // 100 doubles per point
  const double ai = shape.ai_cpu;
  shape.ai_of_block = [ai](double) { return ai; };
  return shape;
}

TEST(SchedulePolicy, StaticPolicyMatchesAnalyticModel) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 1, core::NodeConfig{});
  core::StaticAnalyticPolicy policy;
  core::JobConfig cfg;
  const auto shape = cmeans_shape(10);

  const auto d = policy.node_decision(cluster, shape, cfg, 0);
  const auto split = cluster.scheduler(0).workload_split(
      shape.ai_cpu, shape.ai_gpu, !shape.gpu_data_cached, 1);
  EXPECT_DOUBLE_EQ(d.cpu_fraction, split.cpu_fraction);
  EXPECT_DOUBLE_EQ(d.capability, split.cpu_rate + split.gpu_rate);
}

TEST(SchedulePolicy, SingleBackendAndOverrideWinOverModel) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 1, core::NodeConfig{});
  core::StaticAnalyticPolicy policy;
  const auto shape = cmeans_shape(10);

  core::JobConfig cpu_only;
  cpu_only.use_gpu = false;
  EXPECT_DOUBLE_EQ(policy.node_decision(cluster, shape, cpu_only, 0)
                       .cpu_fraction, 1.0);

  core::JobConfig gpu_only;
  gpu_only.use_cpu = false;
  EXPECT_DOUBLE_EQ(policy.node_decision(cluster, shape, gpu_only, 0)
                       .cpu_fraction, 0.0);

  core::JobConfig forced;
  forced.cpu_fraction_override = 0.42;
  EXPECT_DOUBLE_EQ(policy.node_decision(cluster, shape, forced, 0)
                       .cpu_fraction, 0.42);
}

TEST(SchedulePolicy, MakePolicyFactory) {
  EXPECT_EQ(core::make_policy("static")->name(), "static");
  EXPECT_EQ(core::make_policy("dynamic")->name(), "dynamic");
  EXPECT_EQ(core::make_policy("adaptive")->name(), "adaptive");
  EXPECT_THROW(core::make_policy("greedy"), InvalidArgument);
}

TEST(SchedulePolicy, DynamicBlockItemsFlooredAtMinBs) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 1, core::NodeConfig{});
  core::DynamicBlockPolicy dynamic;
  core::StaticAnalyticPolicy base;
  core::JobConfig cfg;

  // Synthetic size-dependent kernel: AI grows linearly with block bytes, so
  // MinBs = ridge * 1024 (Eq (11) has a closed form here).
  core::JobShape shape;
  shape.item_bytes = 8.0;
  shape.ai_of_block = [](double bytes) { return bytes / 1024.0; };
  const double ridge =
      cluster.scheduler(0).gpu_roofline().ridge_point_staged();
  const auto floor_items = static_cast<std::size_t>(
      std::ceil(ridge * 1024.0 / shape.item_bytes));

  // Partition small enough that the load-balance heuristic would make
  // blocks far below MinBs.
  const std::size_t partition = 4 * floor_items;
  const std::size_t balance =
      base.block_items(cluster, shape, cfg, 0, partition);
  ASSERT_LT(balance, floor_items);

  const std::size_t floored =
      dynamic.block_items(cluster, shape, cfg, 0, partition);
  EXPECT_GE(floored, floor_items);
  EXPECT_LE(floored, partition);

  // An explicit --dynamic-block-items size always wins.
  core::JobConfig manual = cfg;
  manual.dynamic_block_items = 7;
  EXPECT_EQ(dynamic.block_items(cluster, shape, manual, 0, partition), 7u);

  // Constant-AI apps below the ridge have no MinBs: the legacy heuristic
  // partition / (4 * (cores + 1)) applies unchanged.
  const auto legacy_shape = cmeans_shape(10);
  EXPECT_EQ(dynamic.block_items(cluster, legacy_shape, cfg, 0, 26000),
            base.block_items(cluster, legacy_shape, cfg, 0, 26000));
}

// -- pre-refactor equivalence (Table-3 C-means configuration) -----------------

core::JobStats table3_cmeans(core::JobConfig cfg, int gpus) {
  sim::Simulator sim;
  core::NodeConfig node;
  node.gpus_per_node = gpus;
  core::Cluster cluster(sim, 4, node);
  apps::CmeansParams p;
  p.clusters = 10;
  p.max_iterations = 10;
  return apps::cmeans_prs_modeled(cluster, 200000, 100, p, cfg);
}

TEST(PreRefactor, StaticPhaseTimesAreByteIdentical) {
  const auto s = table3_cmeans(core::JobConfig{}, 1);
  // Golden values captured from the pre-refactor monolithic runner.
  EXPECT_DOUBLE_EQ(s.elapsed, 1.2261198423554851);
  EXPECT_DOUBLE_EQ(s.startup_time, 1.2);
  EXPECT_DOUBLE_EQ(s.map_time, 0.023253324927501318);
  EXPECT_DOUBLE_EQ(s.shuffle_time, 0.00060608000000295092);
  EXPECT_DOUBLE_EQ(s.reduce_time, 0.00038997614196345509);
  EXPECT_DOUBLE_EQ(s.gather_time, 0.00055862128601535943);
  EXPECT_EQ(s.map_tasks, 3920u);
  EXPECT_EQ(s.reduce_tasks, 80u);
  EXPECT_DOUBLE_EQ(s.cpu_flops, 1120804572.4137931);
  EXPECT_DOUBLE_EQ(s.gpu_flops, 8879236227.5862083);
  EXPECT_DOUBLE_EQ(s.pcie_bytes, 17912455.172413781);
  EXPECT_DOUBLE_EQ(s.network_bytes, 37740.0);
}

TEST(PreRefactor, DynamicStaysDeterministicAndComparable) {
  core::JobConfig cfg;
  core::DynamicBlockPolicy dynamic;
  cfg.policy = &dynamic;
  const auto a = table3_cmeans(cfg, 1);
  const auto b = table3_cmeans(cfg, 1);
  // Determinism: two runs are byte-identical.
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_DOUBLE_EQ(a.map_time, b.map_time);
  EXPECT_EQ(a.map_tasks, b.map_tasks);
  EXPECT_DOUBLE_EQ(a.cpu_flops, b.cpu_flops);

  // The per-pull dispatch accounting moves a little work between devices
  // versus the pre-refactor runner (blocks now trickle out of the
  // dispatcher), but the totals stay in the pre-refactor envelope:
  // elapsed within 1% of the old 1.2352349819108674 s, same task count.
  // Exactly, elapsed is the stage runner's 1.2415632645755723 s, which
  // dynamic rounds as graph nodes reproduce.
  EXPECT_NEAR(a.elapsed, 1.2352349819108674, 0.013);
  EXPECT_EQ(a.elapsed, 1.2415632645755723);
  EXPECT_EQ(a.map_tasks, 4240u);
  const auto st = table3_cmeans(core::JobConfig{}, 1);
  EXPECT_DOUBLE_EQ(a.network_bytes, st.network_bytes);
  EXPECT_NEAR(a.cpu_flops + a.gpu_flops, st.cpu_flops + st.gpu_flops, 1.0);
}

// -- multi-GPU reduce spread --------------------------------------------------

TEST(ReduceStage, SpreadsAcrossAllCards) {
  // GPU-only reduce on one node: one reduce task per card, and two cards
  // finish faster than one (each card has its own PCI-E link and compute).
  auto reduce_run = [](int gpus) {
    sim::Simulator sim;
    core::NodeConfig node;
    node.gpus_per_node = gpus;
    core::Cluster cluster(sim, 1, node);
    apps::CmeansParams p;
    p.clusters = 10;
    p.max_iterations = 1;
    core::JobConfig cfg;
    cfg.cpu_fraction_override = 0.0;  // all reduce work on the cards
    cfg.charge_job_startup = false;
    return apps::cmeans_prs_modeled(cluster, 100000, 100, p, cfg);
  };
  const auto one = reduce_run(1);
  const auto two = reduce_run(2);
  EXPECT_EQ(one.reduce_tasks, 1u);
  EXPECT_EQ(two.reduce_tasks, 2u);
  EXPECT_LT(two.reduce_time, one.reduce_time);
}

// -- adaptive feedback policy -------------------------------------------------

TEST(AdaptivePolicy, ConvergesTowardAnalyticFraction) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 2, core::NodeConfig{});
  const double p_star =
      cluster.scheduler(0)
          .workload_split(apps::cmeans_arithmetic_intensity(10), false)
          .cpu_fraction;

  // Start from a deliberately wrong 50/50 split; ten iterations of busy-time
  // feedback must pull p close to the Eq (8) optimum.
  core::AdaptiveFeedbackPolicy policy(/*gain=*/0.5, /*initial_fraction=*/0.5);
  apps::CmeansParams p;
  p.clusters = 10;
  p.max_iterations = 10;
  core::JobConfig cfg;
  cfg.policy = &policy;
  cfg.charge_job_startup = false;
  (void)apps::cmeans_prs_modeled(cluster, 100000, 100, p, cfg);

  for (int r = 0; r < 2; ++r) {
    const double learned = policy.learned_fraction(r);
    ASSERT_GE(learned, 0.0) << "node " << r << " never observed feedback";
    EXPECT_NEAR(learned, p_star, 0.05)
        << "node " << r << ": learned " << learned << " vs Eq (8) " << p_star;
    EXPECT_LT(std::abs(learned - p_star), std::abs(0.5 - p_star));
  }
}

TEST(AdaptivePolicy, WrongStartEndsUpNoSlowerThanAnalytic) {
  auto run = [](core::SchedulePolicy* policy) {
    sim::Simulator sim;
    core::Cluster cluster(sim, 2, core::NodeConfig{});
    apps::CmeansParams p;
    p.clusters = 10;
    p.max_iterations = 10;
    core::JobConfig cfg;
    cfg.policy = policy;
    cfg.charge_job_startup = false;
    return apps::cmeans_prs_modeled(cluster, 100000, 100, p, cfg).elapsed;
  };
  core::AdaptiveFeedbackPolicy adaptive(0.5, 0.5);
  core::StaticAnalyticPolicy analytic;
  const double warmup = run(&adaptive);   // learns during these iterations
  const double learned = run(&adaptive);  // runs with the learned p
  const double optimal = run(&analytic);
  EXPECT_LT(learned, warmup);
  EXPECT_LT(learned, optimal * 1.05);
}

TEST(AdaptivePolicy, RespectsOverridesAndSingleBackend) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 1, core::NodeConfig{});
  core::AdaptiveFeedbackPolicy policy(0.5, 0.9);
  const auto shape = cmeans_shape(10);

  core::JobConfig forced;
  forced.cpu_fraction_override = 0.3;
  EXPECT_DOUBLE_EQ(policy.node_decision(cluster, shape, forced, 0)
                       .cpu_fraction, 0.3);

  core::JobConfig gpu_only;
  gpu_only.use_cpu = false;
  EXPECT_DOUBLE_EQ(policy.node_decision(cluster, shape, gpu_only, 0)
                       .cpu_fraction, 0.0);

  core::JobConfig cfg;
  EXPECT_DOUBLE_EQ(policy.node_decision(cluster, shape, cfg, 0).cpu_fraction,
                   0.9);  // initial_fraction until feedback arrives
}

}  // namespace
