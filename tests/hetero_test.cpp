// Tests for the heterogeneity extensions: multi-GPU fat nodes (paper
// Table 4: Delta carries two C2070s), inhomogeneous clusters with
// capability-weighted input splits (§III.B.3.a / future work c), the MIC
// accelerator backend (future work b), and the DGEMM application whose
// arithmetic intensity depends on block size (Eqs (10)-(11)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "apps/cmeans.hpp"
#include "apps/dgemm.hpp"
#include "linalg/blas.hpp"
#include "apps/gemv.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "data/dataset.hpp"
#include "exec/thread_pool.hpp"

namespace prs::core {
namespace {

// -- multi-GPU fat nodes -------------------------------------------------------

NodeConfig delta_with_gpus(int gpus) {
  NodeConfig cfg;
  cfg.gpus_per_node = gpus;
  return cfg;
}

TEST(MultiGpu, SecondGpuLowersAnalyticCpuShare) {
  roofline::AnalyticScheduler sched(simdev::delta_cpu(),
                                    simdev::delta_c2070());
  const double p1 = sched.workload_split(500.0, false, 1).cpu_fraction;
  const double p2 = sched.workload_split(500.0, false, 2).cpu_fraction;
  EXPECT_LT(p2, p1);
  // Two compute-bound GPUs: p = Pc / (Pc + 2*Pg).
  EXPECT_NEAR(p2, 130.0 / (130.0 + 2.0 * 1030.0), 1e-3);
  EXPECT_THROW(sched.workload_split(500.0, false, 0), InvalidArgument);
}

TEST(MultiGpu, TwoGpusSpeedUpGpuOnlyJobs) {
  auto elapsed = [](int gpus) {
    sim::Simulator sim;
    Cluster cluster(sim, 1, delta_with_gpus(gpus));
    apps::CmeansParams p;
    p.clusters = 10;
    p.max_iterations = 5;
    JobConfig cfg;
    cfg.use_cpu = false;
    cfg.charge_job_startup = false;
    return apps::cmeans_prs_modeled(cluster, 500000, 100, p, cfg).elapsed;
  };
  const double t1 = elapsed(1);
  const double t2 = elapsed(2);
  EXPECT_LT(t2, t1 * 0.65);  // near-2x on the compute-dominated part
}

TEST(MultiGpu, ResultsUnchangedByGpuCount) {
  Rng rng(3);
  auto ds = data::generate_blobs(rng, 300, 3, 3, 10.0, 1.0);
  apps::CmeansParams p;
  p.clusters = 3;
  p.max_iterations = 15;

  sim::Simulator s1, s2;
  Cluster c1(s1, 2, delta_with_gpus(1));
  Cluster c2(s2, 2, delta_with_gpus(2));
  auto r1 = apps::cmeans_prs(c1, ds.points, p, JobConfig{});
  auto r2 = apps::cmeans_prs(c2, ds.points, p, JobConfig{});
  // The GPU count changes the work split (different p, different task
  // slices), so partial sums accumulate in a different order: centers agree
  // to summation tolerance, assignments exactly (blobs are well separated).
  ASSERT_EQ(r1.centers.rows(), r2.centers.rows());
  for (std::size_t i = 0; i < r1.centers.size(); ++i) {
    EXPECT_NEAR(r1.centers.storage()[i], r2.centers.storage()[i], 1e-6);
  }
  EXPECT_EQ(r1.assignment, r2.assignment);
}

TEST(MultiGpu, DynamicSchedulingUsesAllCards) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, delta_with_gpus(2));
  auto& node = cluster.node(0);
  MapReduceSpec<int, long> spec;
  spec.name = "spread";
  spec.cpu_map = [](const InputSlice&, Emitter<int, long>& e) {
    e.emit(0, 1);
  };
  spec.combine = [](const long& a, const long& b) { return a + b; };
  spec.cpu_flops_per_item = 1000.0;
  spec.gpu_flops_per_item = 1000.0;
  spec.ai_cpu = 500.0;
  spec.ai_gpu = 500.0;
  spec.gpu_data_cached = true;
  spec.item_bytes = 8.0;
  JobConfig cfg;
  cfg.scheduling = SchedulingMode::kDynamic;
  cfg.use_cpu = false;
  (void)run_job(cluster, spec, cfg, 50000);
  EXPECT_GT(node.gpu(0).kernels_launched(), 0u);
  EXPECT_GT(node.gpu(1).kernels_launched(), 0u);
}

// -- inhomogeneous clusters -----------------------------------------------------

NodeConfig bigred2_node() {
  NodeConfig cfg;
  cfg.cpu = simdev::bigred2_cpu();
  cfg.gpu = simdev::bigred2_k20();
  return cfg;
}

NodeConfig cpu_only_node() {
  NodeConfig cfg;
  cfg.gpus_per_node = 0;
  return cfg;
}

TEST(HeteroCluster, DetectsHomogeneity) {
  sim::Simulator sim;
  Cluster homo(sim, 3, NodeConfig{});
  EXPECT_TRUE(homo.homogeneous());
  sim::Simulator sim2;
  Cluster mixed(sim2, {NodeConfig{}, bigred2_node()});
  EXPECT_FALSE(mixed.homogeneous());
  EXPECT_EQ(mixed.size(), 2);
  EXPECT_EQ(mixed.node_config(1).cpu.name, "BigRed2 AMD Opteron 6212");
}

TEST(HeteroCluster, PerNodeSchedulersDiffer) {
  sim::Simulator sim;
  Cluster mixed(sim, {NodeConfig{}, bigred2_node()});
  const double p_delta =
      mixed.scheduler(0).workload_split(500.0, false).cpu_fraction;
  const double p_br2 =
      mixed.scheduler(1).workload_split(500.0, false).cpu_fraction;
  // The K20 is ~3.4x the C2070: BigRed2's CPU share must be smaller.
  EXPECT_LT(p_br2, p_delta);
}

TEST(HeteroCluster, FasterNodeReceivesMoreInput) {
  sim::Simulator sim;
  Cluster mixed(sim, {NodeConfig{}, bigred2_node()});
  apps::CmeansParams p;
  p.clusters = 10;
  p.max_iterations = 3;
  JobConfig cfg;
  cfg.charge_job_startup = false;
  auto stats = apps::cmeans_prs_modeled(mixed, 400000, 100, p, cfg);
  (void)stats;
  // Capability-weighted split: the BigRed2 node (K20 + 32-core Opteron)
  // must have executed more flops than the Delta node.
  const double delta_flops =
      mixed.node(0).cpu_flops() + mixed.node(0).gpu_flops();
  const double br2_flops =
      mixed.node(1).cpu_flops() + mixed.node(1).gpu_flops();
  EXPECT_GT(br2_flops, 1.5 * delta_flops);
}

TEST(HeteroCluster, ResultsCorrectAcrossMixedNodes) {
  Rng rng(5);
  auto a = data::random_matrix(rng, 150, 40);
  auto x = data::random_vector(rng, 40);
  auto want = apps::gemv_serial(a, x);

  sim::Simulator sim;
  Cluster mixed(sim, {NodeConfig{}, bigred2_node(), cpu_only_node()});
  auto got = apps::gemv_prs(mixed, a, x, JobConfig{});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12);
  }
}

TEST(HeteroCluster, GpuOnlyJobSkipsGpulessNodes) {
  sim::Simulator sim;
  Cluster mixed(sim, {NodeConfig{}, cpu_only_node()});
  apps::CmeansParams p;
  p.clusters = 5;
  p.max_iterations = 2;
  JobConfig cfg;
  cfg.use_cpu = false;
  auto stats = apps::cmeans_prs_modeled(mixed, 100000, 50, p, cfg);
  (void)stats;
  EXPECT_GT(mixed.node(0).gpu_flops(), 0.0);
  EXPECT_DOUBLE_EQ(mixed.node(1).cpu_flops(), 0.0);
  EXPECT_DOUBLE_EQ(mixed.node(1).gpu_flops(), 0.0);
}

// -- MIC / Xeon Phi backend -------------------------------------------------------

TEST(MicBackend, SpecIsValidAcceleratorModel) {
  const auto phi = simdev::xeon_phi_5110p();
  EXPECT_EQ(phi.kind, simdev::DeviceKind::kGpu);
  EXPECT_GT(phi.peak_flops, 1e12);
  EXPECT_GT(phi.hardware_queues, 1);
  sim::Simulator sim;
  simdev::GpuDevice dev(sim, phi);  // constructible as an accelerator
  EXPECT_EQ(dev.memory_capacity(), phi.memory_bytes);
}

TEST(MicBackend, SchedulerPlacesWorkOnPhi) {
  NodeConfig phi_node;
  phi_node.gpu = simdev::xeon_phi_5110p();
  sim::Simulator sim;
  Cluster cluster(sim, 1, phi_node);
  const auto split = cluster.scheduler(0).workload_split(500.0, false);
  // Phi at peak ~2 Tflops vs CPU 130 Gflops: ~94% of work offloaded.
  EXPECT_NEAR(split.cpu_fraction, 130.0 / (130.0 + 2022.0), 1e-3);
}

TEST(MicBackend, JobsRunCorrectlyOnPhiNodes) {
  Rng rng(6);
  auto ds = data::generate_blobs(rng, 200, 3, 2, 10.0, 1.0);
  apps::CmeansParams p;
  p.clusters = 2;
  p.max_iterations = 10;
  auto serial = apps::cmeans_serial(ds.points, p);

  NodeConfig phi_node;
  phi_node.gpu = simdev::xeon_phi_5110p();
  sim::Simulator sim;
  Cluster cluster(sim, 2, phi_node);
  auto res = apps::cmeans_prs(cluster, ds.points, p, JobConfig{});
  for (std::size_t i = 0; i < serial.centers.size(); ++i) {
    EXPECT_NEAR(res.centers.storage()[i], serial.centers.storage()[i], 1e-6);
  }
}

// -- DGEMM ------------------------------------------------------------------------

TEST(Dgemm, BlockAiGrowsWithBlockSize) {
  double prev = 0.0;
  for (double rows : {1.0, 8.0, 64.0, 512.0, 4096.0}) {
    const double ai = apps::dgemm_block_ai(rows, 1024, 1024);
    EXPECT_GT(ai, prev);
    prev = ai;
  }
  // Limits: one row ~ 2 flops/element; huge blocks approach
  // 2*N*K/(K+N) ~ N for square shapes.
  EXPECT_LT(apps::dgemm_block_ai(1, 1024, 1024), 2.1);
  EXPECT_GT(apps::dgemm_block_ai(1 << 20, 1024, 1024), 500.0);
}

TEST(Dgemm, PrsMatchesBlockedKernel) {
  Rng rng(7);
  auto a = data::random_matrix(rng, 60, 32);
  auto b = data::random_matrix(rng, 32, 48);
  linalg::MatrixD want(60, 48, 0.0);
  linalg::gemm(1.0, a, b, 0.0, want);

  for (int nodes : {1, 3}) {
    sim::Simulator sim;
    Cluster cluster(sim, nodes, NodeConfig{});
    auto got = apps::dgemm_prs(cluster, a, b, JobConfig{});
    ASSERT_EQ(got.rows(), want.rows());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got.storage()[i], want.storage()[i], 1e-9)
          << nodes << " nodes";
    }
  }
}

// dgemm_prs hands its payloads a shared C: they write their rows in place
// and emit empty blocks. The rows, the virtual time and the pair count must
// equal those of the block path (no shared C), at any pool size.
TEST(Dgemm, InPlaceRowsMatchTheBlockPath) {
  Rng rng(11);
  const auto a = data::random_matrix(rng, 150, 40);
  const auto b = data::random_matrix(rng, 40, 70);
  NodeConfig node = delta_with_gpus(1);
  JobConfig cfg;
  cfg.mode = ExecutionMode::kFunctional;

  sim::Simulator sim0;
  Cluster cluster0(sim0, 2, node);
  auto blocks_state = std::make_shared<apps::DgemmState>();
  blocks_state->a = &a;
  blocks_state->b = &b;
  const auto blocks = run_job(cluster0, apps::dgemm_spec(blocks_state, 40, 70),
                              cfg, a.rows());
  linalg::MatrixD want(150, 70, 0.0);
  for (const auto& [row, block] : blocks.output) {
    ASSERT_FALSE(block.empty());
    std::copy(block.data(), block.data() + block.size(),
              want.row(static_cast<std::size_t>(row)));
  }

  for (const int threads : {1, 2, 4}) {
    exec::ThreadPool::instance().configure(threads);
    sim::Simulator sim1;
    Cluster cluster1(sim1, 2, node);
    linalg::MatrixD c(150, 70, 0.0);
    auto state = std::make_shared<apps::DgemmState>();
    state->a = &a;
    state->b = &b;
    state->c = &c;
    const auto inplace =
        run_job(cluster1, apps::dgemm_spec(state, 40, 70), cfg, a.rows());
    ASSERT_EQ(inplace.output.size(), blocks.output.size());
    for (const auto& [row, block] : inplace.output) {
      EXPECT_TRUE(block.empty()) << "row " << row;
    }
    EXPECT_EQ(std::memcmp(c.data(), want.data(), c.size() * sizeof(double)),
              0)
        << threads << " threads";
    EXPECT_EQ(inplace.stats.elapsed, blocks.stats.elapsed);
    EXPECT_EQ(inplace.stats.intermediate_pairs,
              blocks.stats.intermediate_pairs);
    EXPECT_EQ(inplace.stats.network_bytes, blocks.stats.network_bytes);

    sim::Simulator sim2;
    Cluster cluster2(sim2, 2, node);
    const auto got = apps::dgemm_prs(cluster2, a, b, cfg);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << threads << " threads";
  }
  exec::ThreadPool::instance().configure(0);
}

TEST(Dgemm, HighAiSendsWorkToGpu) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, NodeConfig{});
  JobConfig cfg;
  cfg.charge_job_startup = false;
  auto stats = apps::dgemm_prs_modeled(cluster, 16384, 4096, 4096, cfg);
  EXPECT_GT(stats.gpu_flops, 4.0 * stats.cpu_flops);
}

TEST(Dgemm, ShapeMismatchThrows) {
  sim::Simulator sim;
  Cluster cluster(sim, 1, NodeConfig{});
  linalg::MatrixD a(4, 3), b(4, 4);
  EXPECT_THROW(apps::dgemm_prs(cluster, a, b, JobConfig{}), InvalidArgument);
}

TEST(Dgemm, StreamsRecommendedForBlas3) {
  // BLAS3's size-dependent AI should trigger multi-stream execution on
  // partitions big enough to hold several MinBs blocks — on a Hyper-Q
  // device. On Fermi (one hardware work queue) the same analysis must be
  // capped at a single stream (§III.B.3.b).
  auto state = std::make_shared<apps::DgemmState>();
  auto spec = apps::dgemm_spec(state, 4096, 4096);
  roofline::AiOfBlock ai = [&spec](double b) {
    return spec.ai_of_block_or_default(b);
  };
  sim::Simulator s1;
  Cluster kepler(s1, 1, bigred2_node());
  EXPECT_GT(kepler.scheduler(0).recommended_streams(64e6, ai, 0.2), 1);

  sim::Simulator s2;
  Cluster fermi(s2, 1, NodeConfig{});
  EXPECT_EQ(fermi.scheduler(0).recommended_streams(64e6, ai, 0.2), 1);
}

}  // namespace
}  // namespace prs::core
