// Tests for the Jacobi stencil app: PDE correctness properties (maximum
// principle, convergence to the harmonic solution), serial/PRS equivalence,
// and the §V scheduling claim (middle-range AI -> both backends contribute
// non-trivially).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "apps/stencil.hpp"
#include "core/calibration.hpp"
#include "core/cluster.hpp"

namespace prs::apps {
namespace {

using core::Cluster;
using core::JobConfig;
using core::NodeConfig;

/// Grid with hot left edge (1.0), cold elsewhere on the boundary.
linalg::MatrixD hot_edge_grid(std::size_t rows, std::size_t cols) {
  linalg::MatrixD g(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) g(r, 0) = 1.0;
  return g;
}

TEST(StencilSerial, OneStepAveragesNeighbors) {
  linalg::MatrixD g(3, 3, 0.0);
  g(0, 1) = 4.0;  // north neighbour of the single interior cell
  linalg::MatrixD out(3, 3);
  const double residual = jacobi_step(g, out);
  EXPECT_DOUBLE_EQ(out(1, 1), 1.0);  // (4+0+0+0)/4
  EXPECT_DOUBLE_EQ(residual, 1.0);
  // Boundaries unchanged.
  EXPECT_DOUBLE_EQ(out(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(out(2, 2), 0.0);
}

TEST(StencilSerial, MaximumPrincipleHolds) {
  // Interior values of the harmonic solution stay within boundary extremes.
  auto g = hot_edge_grid(12, 12);
  StencilParams p;
  p.max_iterations = 500;
  p.epsilon = 1e-9;
  auto res = stencil_serial(g, p);
  for (std::size_t r = 1; r + 1 < 12; ++r) {
    for (std::size_t c = 1; c + 1 < 12; ++c) {
      EXPECT_GE(res.grid(r, c), 0.0);
      EXPECT_LE(res.grid(r, c), 1.0);
    }
  }
  // Cells near the hot edge are hotter than cells near the cold edge.
  EXPECT_GT(res.grid(6, 1), res.grid(6, 10));
}

TEST(StencilSerial, ConvergesToLinearProfileIn1DLikeStrip) {
  // A tall narrow strip with hot left/cold right converges to a linear
  // temperature profile across columns (the 1-D harmonic function).
  const std::size_t rows = 40, cols = 10;
  linalg::MatrixD g(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) g(r, 0) = 1.0;
  // Make top/bottom boundaries follow the same linear profile so the 2-D
  // solution is exactly linear.
  for (std::size_t c = 0; c < cols; ++c) {
    const double v =
        1.0 - static_cast<double>(c) / static_cast<double>(cols - 1);
    g(0, c) = v;
    g(rows - 1, c) = v;
  }
  StencilParams p;
  p.max_iterations = 4000;
  p.epsilon = 1e-12;
  auto res = stencil_serial(g, p);
  for (std::size_t c = 0; c < cols; ++c) {
    const double want =
        1.0 - static_cast<double>(c) / static_cast<double>(cols - 1);
    EXPECT_NEAR(res.grid(rows / 2, c), want, 1e-6) << "col " << c;
  }
}

TEST(StencilSerial, ResidualDecreasesMonotonically) {
  auto g = hot_edge_grid(16, 16);
  double prev = 1e300;
  for (int iters = 1; iters <= 6; ++iters) {
    StencilParams p;
    p.max_iterations = iters;
    p.epsilon = 0.0;
    auto res = stencil_serial(g, p);
    EXPECT_LE(res.residual, prev * (1 + 1e-12));
    prev = res.residual;
  }
}

TEST(StencilSerial, RejectsTinyGrids) {
  linalg::MatrixD g(2, 5);
  StencilParams p;
  EXPECT_THROW(stencil_serial(g, p), InvalidArgument);
}

TEST(StencilPrs, MatchesSerialExactly) {
  auto g = hot_edge_grid(20, 15);
  StencilParams p;
  p.max_iterations = 30;
  p.epsilon = 0.0;
  auto serial = stencil_serial(g, p);
  for (int nodes : {1, 3}) {
    sim::Simulator sim;
    Cluster cluster(sim, nodes, NodeConfig{});
    auto prs = stencil_prs(cluster, g, p, JobConfig{});
    ASSERT_EQ(prs.grid.rows(), serial.grid.rows());
    for (std::size_t i = 0; i < serial.grid.size(); ++i) {
      EXPECT_DOUBLE_EQ(prs.grid.storage()[i], serial.grid.storage()[i])
          << nodes << " nodes, cell " << i;
    }
    EXPECT_EQ(prs.iterations, serial.iterations);
    EXPECT_NEAR(prs.residual, serial.residual, 1e-15);
  }
}

TEST(StencilPrs, DynamicSchedulingMatchesToo) {
  auto g = hot_edge_grid(18, 12);
  StencilParams p;
  p.max_iterations = 20;
  p.epsilon = 0.0;
  auto serial = stencil_serial(g, p);
  sim::Simulator sim;
  Cluster cluster(sim, 2, NodeConfig{});
  JobConfig cfg;
  core::DynamicBlockPolicy dynamic;
  cfg.policy = &dynamic;
  auto prs = stencil_prs(cluster, g, p, cfg);
  for (std::size_t i = 0; i < serial.grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(prs.grid.storage()[i], serial.grid.storage()[i]);
  }
}

TEST(StencilScheduling, MiddleAiGivesBothBackendsNontrivialShares) {
  // §V: PDE-class apps sit between GEMV (97% CPU) and C-means (11% CPU) —
  // both devices make "the non-trivial contribution".
  sim::Simulator sim;
  Cluster cluster(sim, 1, NodeConfig{});
  const double p = cluster.scheduler(0)
                       .workload_split(stencil_arithmetic_intensity(),
                                       /*gpu_staged=*/false)
                       .cpu_fraction;
  EXPECT_GT(p, 0.12);
  EXPECT_LT(p, 0.60);
}

TEST(StencilScheduling, RuntimePlacementFollowsModel) {
  auto g = hot_edge_grid(300, 200);
  StencilParams p;
  p.max_iterations = 5;
  p.epsilon = 0.0;
  sim::Simulator sim;
  Cluster cluster(sim, 1, NodeConfig{});
  core::JobStats stats;
  (void)stencil_prs(cluster, g, p, JobConfig{}, &stats);
  const double share = stats.cpu_flops / stats.total_flops();
  const double want = cluster.scheduler(0)
                          .workload_split(stencil_arithmetic_intensity(),
                                          false)
                          .cpu_fraction;
  EXPECT_NEAR(share, want, 0.05);
}


// -- Wavefront halo graph --------------------------------------------------------

TEST(StencilHaloGraph, MatchesSerialExactlyAtEveryDepth) {
  auto g = hot_edge_grid(24, 16);
  StencilParams p;
  p.max_iterations = 40;  // spans two 32-iteration super-windows
  p.epsilon = 0.0;
  auto serial = stencil_serial(g, p);
  for (int nodes : {1, 3}) {
    for (int depth : {2, 4}) {
      sim::Simulator sim;
      Cluster cluster(sim, nodes, NodeConfig{});
      JobConfig cfg;
      cfg.pipeline_depth = depth;
      auto prs = stencil_prs(cluster, g, p, cfg);
      ASSERT_EQ(prs.grid.rows(), serial.grid.rows());
      for (std::size_t i = 0; i < serial.grid.size(); ++i) {
        EXPECT_DOUBLE_EQ(prs.grid.storage()[i], serial.grid.storage()[i])
            << nodes << " nodes, depth " << depth << ", cell " << i;
      }
      EXPECT_EQ(prs.iterations, serial.iterations);
      EXPECT_NEAR(prs.residual, serial.residual, 1e-15);
    }
  }
}

TEST(StencilHaloGraph, ConvergenceStopsAtTheSameIteration) {
  // Loose epsilon so the run converges mid-window: the retire node must
  // stop the wavefront at exactly the serial iteration count even with
  // depth sweeps already in flight.
  auto g = hot_edge_grid(16, 12);
  StencilParams p;
  p.max_iterations = 200;
  p.epsilon = 1e-3;
  auto serial = stencil_serial(g, p);
  ASSERT_LT(serial.iterations, p.max_iterations);  // actually converges
  sim::Simulator sim;
  Cluster cluster(sim, 2, NodeConfig{});
  JobConfig cfg;
  cfg.pipeline_depth = 4;
  auto prs = stencil_prs(cluster, g, p, cfg);
  EXPECT_EQ(prs.iterations, serial.iterations);
  EXPECT_NEAR(prs.residual, serial.residual, 1e-15);
  for (std::size_t i = 0; i < serial.grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(prs.grid.storage()[i], serial.grid.storage()[i]);
  }
}

TEST(StencilHaloGraph, OverlapBeatsTheStageBarrier) {
  // The payoff claim: with halo dependencies instead of per-iteration
  // global barriers, the same work finishes in less virtual time.
  auto g = hot_edge_grid(64, 48);
  StencilParams p;
  p.max_iterations = 30;
  p.epsilon = 0.0;
  double t_stages = 0.0, t_graph = 0.0;
  {
    sim::Simulator sim;
    Cluster cluster(sim, 2, NodeConfig{});
    core::JobStats stats;
    (void)stencil_prs(cluster, g, p, JobConfig{}, &stats);
    t_stages = stats.elapsed;
  }
  {
    sim::Simulator sim;
    Cluster cluster(sim, 2, NodeConfig{});
    JobConfig cfg;
    cfg.pipeline_depth = 4;
    core::JobStats stats;
    (void)stencil_prs(cluster, g, p, cfg, &stats);
    t_graph = stats.elapsed;
  }
  ASSERT_GT(t_stages, 0.0);
  ASSERT_GT(t_graph, 0.0);
  EXPECT_LT(t_graph, t_stages);
}

TEST(StencilHaloGraph, ChargesTheJobStartupOnce) {
  // Like every other job, the halo graph pays the PRS startup constant
  // once, and reports it as its startup phase.
  auto g = hot_edge_grid(24, 16);
  StencilParams p;
  p.max_iterations = 40;  // two windows: the second one pays nothing
  p.epsilon = 0.0;
  core::JobStats with, without;
  linalg::MatrixD grid_with, grid_without;
  for (const bool charge : {true, false}) {
    sim::Simulator sim;
    Cluster cluster(sim, 2, NodeConfig{});
    JobConfig cfg;
    cfg.pipeline_depth = 2;
    cfg.charge_job_startup = charge;
    auto res = stencil_prs(cluster, g, p, cfg, charge ? &with : &without);
    (charge ? grid_with : grid_without) = res.grid;
  }
  EXPECT_NEAR(with.elapsed - without.elapsed, core::calib::kPrsJobStartup,
              1e-9);
  EXPECT_DOUBLE_EQ(with.startup_time, core::calib::kPrsJobStartup);
  EXPECT_EQ(without.startup_time, 0.0);
  EXPECT_EQ(grid_with, grid_without);
}

TEST(StencilHaloGraph, PassesTheStageGateBeforeEachWindow) {
  auto g = hot_edge_grid(24, 16);
  StencilParams p;
  p.max_iterations = 40;
  p.epsilon = 0.0;
  std::vector<int> gates;
  {
    sim::Simulator sim;
    Cluster cluster(sim, 2, NodeConfig{});
    JobConfig cfg;
    cfg.pipeline_depth = 2;
    cfg.stage_gate = [&gates](int iter) { gates.push_back(iter); };
    (void)stencil_prs(cluster, g, p, cfg);
  }
  EXPECT_EQ(gates, (std::vector<int>{0, 32}));
  // A gate that throws (the job server's cancel) ends the job there.
  sim::Simulator sim;
  Cluster cluster(sim, 2, NodeConfig{});
  JobConfig cfg;
  cfg.pipeline_depth = 2;
  cfg.stage_gate = [](int iter) {
    if (iter > 0) throw std::runtime_error("cancelled at gate");
  };
  EXPECT_THROW((void)stencil_prs(cluster, g, p, cfg), std::runtime_error);
}

}  // namespace
}  // namespace prs::apps
