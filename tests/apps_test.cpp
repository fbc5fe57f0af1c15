// Application tests: serial references against hand-checked/analytic
// results, distributed PRS runs against the serial references, and
// algorithmic invariants (objective monotonicity, likelihood ascent).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "apps/cmeans.hpp"
#include "apps/gemv.hpp"
#include "apps/gmm.hpp"
#include "apps/kmeans.hpp"
#include "apps/wordcount.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "simd/scalar_ref.hpp"

namespace prs::apps {
namespace {

using core::Cluster;
using core::JobConfig;
using core::NodeConfig;

linalg::MatrixD two_blob_points() {
  // 8 points in two tight 2-D blobs around (0,0) and (10,10).
  linalg::MatrixD pts(8, 2);
  const double raw[8][2] = {{0, 0},  {1, 0},  {0, 1},  {1, 1},
                            {10, 10}, {11, 10}, {10, 11}, {11, 11}};
  for (std::size_t i = 0; i < 8; ++i) {
    pts(i, 0) = raw[i][0];
    pts(i, 1) = raw[i][1];
  }
  return pts;
}

// -- C-means -----------------------------------------------------------------

TEST(CmeansSerial, RecoversTwoObviousBlobs) {
  auto pts = two_blob_points();
  CmeansParams p;
  p.clusters = 2;
  auto res = cmeans_serial(pts, p);
  // Centers converge to the blob centroids (0.5,0.5) and (10.5,10.5).
  std::vector<double> c0{res.centers(0, 0), res.centers(0, 1)};
  std::vector<double> c1{res.centers(1, 0), res.centers(1, 1)};
  if (c0[0] > c1[0]) std::swap(c0, c1);
  EXPECT_NEAR(c0[0], 0.5, 0.05);
  EXPECT_NEAR(c0[1], 0.5, 0.05);
  EXPECT_NEAR(c1[0], 10.5, 0.05);
  EXPECT_NEAR(c1[1], 10.5, 0.05);
  // Hard assignment splits 4/4 consistent with ground truth.
  EXPECT_EQ(res.assignment[0], res.assignment[3]);
  EXPECT_EQ(res.assignment[4], res.assignment[7]);
  EXPECT_NE(res.assignment[0], res.assignment[4]);
}

TEST(CmeansSerial, ObjectiveDecreasesMonotonically) {
  Rng rng(3);
  auto ds = data::generate_blobs(rng, 300, 3, 3, 8.0, 1.0);
  CmeansParams p;
  p.clusters = 3;
  p.epsilon = 0.0;  // never early-stop
  double prev = std::numeric_limits<double>::infinity();
  for (int iters = 1; iters <= 8; ++iters) {
    CmeansParams pi = p;
    pi.max_iterations = iters;
    auto res = cmeans_serial(ds.points, pi);
    EXPECT_LE(res.objective, prev * (1.0 + 1e-9)) << "iteration " << iters;
    prev = res.objective;
  }
}

TEST(CmeansSerial, PointOnCenterGetsFullMembership) {
  // A degenerate config: one point exactly at a center must not produce
  // NaNs (Eq (13) divides by distance).
  linalg::MatrixD pts(3, 1);
  pts(0, 0) = 0.0;
  pts(1, 0) = 0.0;  // duplicate point -> initial center hit
  pts(2, 0) = 5.0;
  CmeansParams p;
  p.clusters = 2;
  p.max_iterations = 5;
  auto res = cmeans_serial(pts, p);
  for (std::size_t i = 0; i < res.centers.size(); ++i) {
    EXPECT_TRUE(std::isfinite(res.centers.storage()[i]));
  }
}

TEST(CmeansSerial, ValidatesParameters) {
  auto pts = two_blob_points();
  CmeansParams p;
  p.clusters = 0;
  EXPECT_THROW(cmeans_serial(pts, p), InvalidArgument);
  p.clusters = 100;
  EXPECT_THROW(cmeans_serial(pts, p), InvalidArgument);
  p.clusters = 2;
  p.fuzziness = 1.0;
  EXPECT_THROW(cmeans_serial(pts, p), InvalidArgument);
}

TEST(CmeansPrs, MatchesSerialReference) {
  Rng rng(7);
  auto ds = data::generate_blobs(rng, 400, 4, 3, 10.0, 1.0);
  CmeansParams p;
  p.clusters = 3;
  p.max_iterations = 20;

  auto serial = cmeans_serial(ds.points, p);

  for (int nodes : {1, 3}) {
    sim::Simulator simu;
    Cluster cluster(simu, nodes, NodeConfig{});
    auto prs = cmeans_prs(cluster, ds.points, p, JobConfig{});
    ASSERT_EQ(prs.centers.rows(), serial.centers.rows());
    for (std::size_t i = 0; i < serial.centers.size(); ++i) {
      EXPECT_NEAR(prs.centers.storage()[i], serial.centers.storage()[i],
                  1e-6)
          << nodes << " nodes";
    }
    EXPECT_EQ(prs.assignment, serial.assignment);
  }
}

TEST(CmeansPrs, DynamicSchedulingMatchesToo) {
  Rng rng(8);
  auto ds = data::generate_blobs(rng, 200, 3, 2, 10.0, 1.0);
  CmeansParams p;
  p.clusters = 2;
  p.max_iterations = 15;
  auto serial = cmeans_serial(ds.points, p);

  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  JobConfig cfg;
  core::DynamicBlockPolicy dynamic;
  cfg.policy = &dynamic;
  auto prs = cmeans_prs(cluster, ds.points, p, cfg);
  for (std::size_t i = 0; i < serial.centers.size(); ++i) {
    EXPECT_NEAR(prs.centers.storage()[i], serial.centers.storage()[i], 1e-6);
  }
}

TEST(CmeansPrs, RecoversFlameLikeClusters) {
  Rng rng(9);
  auto ds = data::generate_flame_like(rng, 2000);
  CmeansParams p;
  p.clusters = 5;
  p.max_iterations = 50;
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto prs = cmeans_prs(cluster, ds.points, p, JobConfig{});
  const double overlap = data::overlap_with_reference(prs.assignment,
                                                      ds.labels);
  // Overlapping mixture: expect decent but not perfect recovery.
  EXPECT_GT(overlap, 0.6);
}

TEST(CmeansCostModel, MatchesTable5Formulas) {
  EXPECT_DOUBLE_EQ(cmeans_arithmetic_intensity(100), 500.0);
  EXPECT_DOUBLE_EQ(cmeans_flops_per_point(10, 100), 5000.0);
}

TEST(CmeansMapKernel, TiedZeroDistanceCentersSplitMembershipEqually) {
  // Eq (13) limit case: a point sitting exactly on T coincident centers
  // (duplicated centers happen with random initialization) has membership
  // u = 1/T in each — not u = 1 on whichever tied center the scan saw
  // last. With fuzziness m = 2 the stored Eq (14) weight is u^2 = 0.25.
  linalg::MatrixD pts(1, 2);
  pts(0, 0) = 1.0;
  pts(0, 1) = 2.0;
  linalg::MatrixD centers(3, 2);
  centers(0, 0) = 1.0;
  centers(0, 1) = 2.0;
  centers(1, 0) = 1.0;  // duplicate of center 0, both on the point
  centers(1, 1) = 2.0;
  centers(2, 0) = 7.0;
  centers(2, 1) = 9.0;

  std::vector<std::vector<double>> partials;
  cmeans_accumulate(pts, centers, 2.0, 0, 1, partials);

  // Layout per cluster: [weighted x sums (D), weight sum, objective].
  EXPECT_DOUBLE_EQ(partials[0][2], 0.25);
  EXPECT_DOUBLE_EQ(partials[1][2], 0.25);
  EXPECT_DOUBLE_EQ(partials[2][2], 0.0);  // far center gets nothing
  EXPECT_DOUBLE_EQ(partials[0][0], 0.25 * 1.0);
  EXPECT_DOUBLE_EQ(partials[0][1], 0.25 * 2.0);
  EXPECT_DOUBLE_EQ(partials[1][0], 0.25 * 1.0);
  EXPECT_DOUBLE_EQ(partials[1][1], 0.25 * 2.0);
  EXPECT_DOUBLE_EQ(partials[0][3], 0.0);  // zero distance -> J_m adds 0

  // Both tied centers stay exactly on the point after the Eq (14) update.
  EXPECT_DOUBLE_EQ(partials[0][0] / partials[0][2], 1.0);
  EXPECT_DOUBLE_EQ(partials[1][1] / partials[1][2], 2.0);
}

TEST(CmeansMapKernel, SingleZeroDistanceCenterKeepsFullMembership) {
  // The unduplicated case must behave exactly as before the tie fix:
  // the point belongs to its center with u = 1 (weight u^m = 1).
  linalg::MatrixD pts(1, 2);
  pts(0, 0) = 1.0;
  pts(0, 1) = 2.0;
  linalg::MatrixD centers(2, 2);
  centers(0, 0) = 1.0;
  centers(0, 1) = 2.0;
  centers(1, 0) = 7.0;
  centers(1, 1) = 9.0;

  std::vector<std::vector<double>> partials;
  cmeans_accumulate(pts, centers, 2.0, 0, 1, partials);
  EXPECT_DOUBLE_EQ(partials[0][2], 1.0);
  EXPECT_DOUBLE_EQ(partials[1][2], 0.0);
}

/// The C-means map as a per-point loop: each point's Eq (13) weights from
/// the scalar reference distances, then one axpy and one weight-sum add
/// per nonzero weight and the point's J_m term, in point order.
std::vector<std::vector<double>> cmeans_per_point_reference(
    const linalg::MatrixD& pts, const linalg::MatrixD& centers,
    double fuzziness) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  std::vector<std::vector<double>> partials(m,
                                            std::vector<double>(d + 2, 0.0));
  std::vector<double> dist2(m), w(m);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const double* x = pts.row(i);
    simd::ref::dist2_rows(x, 1, d, centers.row(0), m, dist2.data());
    const auto hits = std::count(dist2.begin(), dist2.end(), 0.0);
    double objective = 0.0;
    if (hits > 0) {
      const double tied = std::pow(1.0 / static_cast<double>(hits), fuzziness);
      for (std::size_t j = 0; j < m; ++j) w[j] = dist2[j] == 0.0 ? tied : 0.0;
    } else {
      const double inv_exp = 1.0 / (fuzziness - 1.0);
      double denom = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        w[j] = std::pow(dist2[j], -inv_exp);
        denom += w[j];
      }
      for (std::size_t j = 0; j < m; ++j) {
        w[j] = std::pow(w[j] / denom, fuzziness);
        objective += w[j] * dist2[j];
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (w[j] == 0.0) continue;
      for (std::size_t c = 0; c < d; ++c) partials[j][c] += w[j] * x[c];
      partials[j][d] += w[j];
    }
    partials[0][d + 1] += objective;
  }
  return partials;
}

TEST(CmeansMapKernel, BlockedMapMatchesAPerPointReferenceLoop) {
  // The map runs 16-point blocks, each one rank-16 gemm_block update that
  // adds zero weights too. Its bytes must be the per-point loop's, which
  // skips them, at every SIMD level and pool size. 257 points make
  // two 256-point chunks, the second of one point, so the chunk combine
  // adds that point's terms to the first chunk's sums exactly as the loop
  // does (0 + t == t).
  // A runtime fuzziness: with a constant 2.0, GCC folds the reference's
  // pow(u, 2.0) into u * u, whose bytes are not pow's.
  volatile double runtime_fuzziness = 2.0;
  const double fuzziness = runtime_fuzziness;
  const std::size_t m = 5, d = 7;
  Rng rng(17);
  linalg::MatrixD centers(m, d);
  for (auto& v : centers.storage()) v = rng.uniform(-3.0, 3.0);
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level l : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::level_supported(l)) levels.push_back(l);
  }
  struct Reset {
    ~Reset() {
      exec::ThreadPool::instance().configure(0);
      simd::clear_level_override();
    }
  } reset;
  for (const std::size_t n : {1ul, 15ul, 16ul, 17ul, 257ul}) {
    // 0: every weight nonzero. 1: point n/2 sits on center 2, so its
    // block has zero weights. 2: point n-1 also has an infinite
    // coordinate, which makes all its weights NaN; were one of them zero,
    // the update would add 0 * inf = NaN where the loop skips it.
    for (int variant = 0; variant < 3; ++variant) {
      linalg::MatrixD pts(n, d);
      for (auto& v : pts.storage()) v = rng.uniform(-4.0, 4.0);
      if (variant >= 1) {
        for (std::size_t c = 0; c < d; ++c) pts(n / 2, c) = centers(2, c);
      }
      if (variant == 2) pts(n - 1, 3) = std::numeric_limits<double>::infinity();
      const auto want = cmeans_per_point_reference(pts, centers, fuzziness);
      for (const simd::Level level : levels) {
        simd::set_level(level);
        for (const int threads : {1, 4}) {
          exec::ThreadPool::instance().configure(threads);
          std::vector<std::vector<double>> got;
          cmeans_accumulate(pts, centers, fuzziness, 0, n, got);
          ASSERT_EQ(got.size(), m);
          for (std::size_t j = 0; j < m; ++j) {
            ASSERT_EQ(got[j].size(), d + 2);
            EXPECT_EQ(std::memcmp(got[j].data(), want[j].data(),
                                  (d + 2) * sizeof(double)),
                      0)
                << "n=" << n << " variant=" << variant << " level="
                << simd::level_name(level) << " threads=" << threads
                << " cluster=" << j;
          }
        }
      }
    }
  }
}

// -- K-means -----------------------------------------------------------------

TEST(KmeansSerial, RecoversTwoObviousBlobs) {
  auto pts = two_blob_points();
  KmeansParams p;
  p.clusters = 2;
  auto res = kmeans_serial(pts, p);
  std::vector<double> c0{res.centers(0, 0), res.centers(0, 1)};
  std::vector<double> c1{res.centers(1, 0), res.centers(1, 1)};
  if (c0[0] > c1[0]) std::swap(c0, c1);
  EXPECT_NEAR(c0[0], 0.5, 1e-9);
  EXPECT_NEAR(c1[0], 10.5, 1e-9);
  // Inertia for converged two-blob K-means: 8 points each 0.5 away in both
  // axes from its centroid -> sum d^2 = 8 * 0.5 = 4.
  EXPECT_NEAR(res.inertia, 4.0, 1e-9);
}

TEST(KmeansSerial, InertiaNeverIncreases) {
  Rng rng(4);
  auto ds = data::generate_blobs(rng, 250, 2, 4, 6.0, 1.2);
  KmeansParams p;
  p.clusters = 4;
  p.epsilon = 0.0;
  double prev = std::numeric_limits<double>::infinity();
  for (int iters = 1; iters <= 8; ++iters) {
    KmeansParams pi = p;
    pi.max_iterations = iters;
    auto res = kmeans_serial(ds.points, pi);
    EXPECT_LE(res.inertia, prev * (1.0 + 1e-9));
    prev = res.inertia;
  }
}

TEST(KmeansPrs, MatchesSerialReference) {
  Rng rng(11);
  auto ds = data::generate_blobs(rng, 300, 3, 3, 9.0, 1.0);
  KmeansParams p;
  p.clusters = 3;
  p.max_iterations = 25;
  auto serial = kmeans_serial(ds.points, p);

  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto prs = kmeans_prs(cluster, ds.points, p, JobConfig{});
  for (std::size_t i = 0; i < serial.centers.size(); ++i) {
    EXPECT_NEAR(prs.centers.storage()[i], serial.centers.storage()[i], 1e-9);
  }
  EXPECT_EQ(prs.assignment, serial.assignment);
  EXPECT_EQ(prs.iterations, serial.iterations);
}

// -- GMM ----------------------------------------------------------------------

TEST(GmmSerial, FitsTwoWellSeparatedGaussians) {
  Rng rng(5);
  std::vector<data::GaussianComponent> comps = {
      {0.6, {0.0, 0.0}, {1.0, 1.0}},
      {0.4, {12.0, -8.0}, {0.5, 2.0}},
  };
  auto ds = data::sample_gaussian_mixture(rng, 4000, comps);
  GmmParams p;
  p.components = 2;
  p.max_iterations = 60;
  auto model = gmm_serial(ds.points, p);

  // Identify components by their first mean coordinate.
  std::size_t far = model.means(0, 0) > model.means(1, 0) ? 0 : 1;
  std::size_t near = 1 - far;
  EXPECT_NEAR(model.means(near, 0), 0.0, 0.15);
  EXPECT_NEAR(model.means(near, 1), 0.0, 0.15);
  EXPECT_NEAR(model.means(far, 0), 12.0, 0.15);
  EXPECT_NEAR(model.means(far, 1), -8.0, 0.15);
  EXPECT_NEAR(model.weights[near], 0.6, 0.03);
  EXPECT_NEAR(model.weights[far], 0.4, 0.03);
  EXPECT_NEAR(model.variances(far, 0), 0.25, 0.05);
  EXPECT_NEAR(model.variances(far, 1), 4.0, 0.4);
}

TEST(GmmSerial, LogLikelihoodIsNonDecreasing) {
  Rng rng(6);
  auto ds = data::generate_blobs(rng, 500, 2, 3, 7.0, 1.0);
  GmmParams p;
  p.components = 3;
  p.epsilon = 0.0;
  double prev = -std::numeric_limits<double>::infinity();
  for (int iters = 1; iters <= 10; ++iters) {
    GmmParams pi = p;
    pi.max_iterations = iters;
    auto model = gmm_serial(ds.points, pi);
    EXPECT_GE(model.log_likelihood, prev - 1e-9) << "iteration " << iters;
    prev = model.log_likelihood;
  }
}

TEST(GmmSerial, WeightsFormDistribution) {
  Rng rng(13);
  auto ds = data::generate_flame_like(rng, 1500);
  GmmParams p;
  p.components = 5;
  p.max_iterations = 30;
  auto model = gmm_serial(ds.points, p);
  double total = 0.0;
  for (double w : model.weights) {
    EXPECT_GT(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t i = 0; i < model.variances.size(); ++i) {
    EXPECT_GE(model.variances.storage()[i], p.min_variance);
  }
}

TEST(GmmSerial, ResponsibilitiesRowsSumToOne) {
  Rng rng(14);
  auto ds = data::generate_blobs(rng, 100, 2, 2, 10.0, 1.0);
  GmmParams p;
  p.components = 2;
  p.max_iterations = 10;
  auto model = gmm_serial(ds.points, p);
  auto resp = gmm_responsibilities(ds.points, model);
  for (std::size_t i = 0; i < resp.rows(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < resp.cols(); ++j) row += resp(i, j);
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST(GmmPrs, MatchesSerialReference) {
  Rng rng(15);
  auto ds = data::generate_blobs(rng, 400, 3, 2, 12.0, 1.0);
  GmmParams p;
  p.components = 2;
  p.max_iterations = 20;
  auto serial = gmm_serial(ds.points, p);

  sim::Simulator simu;
  Cluster cluster(simu, 3, NodeConfig{});
  auto prs = gmm_prs(cluster, ds.points, p, JobConfig{});
  for (std::size_t i = 0; i < serial.means.size(); ++i) {
    EXPECT_NEAR(prs.means.storage()[i], serial.means.storage()[i], 1e-6);
  }
  for (std::size_t i = 0; i < serial.variances.size(); ++i) {
    EXPECT_NEAR(prs.variances.storage()[i], serial.variances.storage()[i],
                1e-6);
  }
  EXPECT_NEAR(prs.log_likelihood, serial.log_likelihood, 1e-6);
}

TEST(GmmCostModel, MatchesTable5Formula) {
  EXPECT_DOUBLE_EQ(gmm_arithmetic_intensity(10, 60), 6600.0);
  EXPECT_DOUBLE_EQ(gmm_flops_per_point(10, 60), 6600.0);
}

// -- GEMV ----------------------------------------------------------------------

TEST(GemvSerial, MatchesBlasKernel) {
  Rng rng(16);
  auto a = data::random_matrix(rng, 17, 9);
  auto x = data::random_vector(rng, 9);
  auto y = gemv_serial(a, x);
  ASSERT_EQ(y.size(), 17u);
  // Spot-check one row by hand.
  double acc = 0.0;
  for (std::size_t c = 0; c < 9; ++c) acc += a(5, c) * x[c];
  EXPECT_NEAR(y[5], acc, 1e-12);
}

TEST(GemvPrs, MatchesSerialOnAnyClusterSize) {
  Rng rng(17);
  auto a = data::random_matrix(rng, 203, 57);
  auto x = data::random_vector(rng, 57);
  auto want = gemv_serial(a, x);
  for (int nodes : {1, 2, 5}) {
    sim::Simulator simu;
    Cluster cluster(simu, nodes, NodeConfig{});
    auto got = gemv_prs(cluster, a, x, JobConfig{});
    ASSERT_EQ(got.size(), want.size()) << nodes << " nodes";
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12) << "row " << i;
    }
  }
}

TEST(GemvPrs, AnalyticModelSendsMostWorkToCpu) {
  // GEMV on the Delta node: Eq (8) predicts p ~ 97%; check the runtime
  // actually executed ~that share of flops on the CPU.
  Rng rng(18);
  auto a = data::random_matrix(rng, 400, 64);
  auto x = data::random_vector(rng, 64);
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  core::JobStats stats;
  (void)gemv_prs(cluster, a, x, JobConfig{}, &stats);
  const double cpu_share = stats.cpu_flops / stats.total_flops();
  EXPECT_GT(cpu_share, 0.9);
}

TEST(GemvPrs, ShapeMismatchThrows) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  linalg::MatrixD a(4, 3);
  std::vector<double> x(5);
  EXPECT_THROW(gemv_prs(cluster, a, x, JobConfig{}), InvalidArgument);
}

// -- word count ------------------------------------------------------------------

TEST(WordCount, SerialCountsHandBuiltCorpus) {
  Corpus corpus{"a b a", "b c", "a"};
  auto counts = wordcount_serial(corpus);
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 1);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(WordCount, GeneratorProducesRequestedShape) {
  Rng rng(19);
  auto corpus = generate_corpus(rng, 100, 8, 50);
  EXPECT_EQ(corpus.size(), 100u);
  auto counts = wordcount_serial(corpus);
  long total = 0;
  for (const auto& [w, c] : counts) total += c;
  EXPECT_EQ(total, 800);
  EXPECT_LE(counts.size(), 50u);
}

TEST(WordCount, PrsMatchesSerial) {
  Rng rng(20);
  auto corpus =
      std::make_shared<const Corpus>(generate_corpus(rng, 500, 6, 40));
  auto want = wordcount_serial(*corpus);
  for (int nodes : {1, 4}) {
    sim::Simulator simu;
    Cluster cluster(simu, nodes, NodeConfig{});
    auto got = wordcount_prs(cluster, corpus, JobConfig{});
    EXPECT_EQ(got, want) << nodes << " nodes";
  }
}

TEST(WordCount, LowIntensityFavorsCpuHeavySplit) {
  Rng rng(21);
  auto corpus =
      std::make_shared<const Corpus>(generate_corpus(rng, 300, 6, 40));
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  core::JobStats stats;
  (void)wordcount_prs(cluster, corpus, JobConfig{}, &stats);
  EXPECT_GT(stats.cpu_flops, stats.gpu_flops);
}

TEST(WordCount, CostModelMeasuresTheActualCorpus) {
  // The spec's per-item costs must come from the corpus really passed in
  // (mean line/word length), not from a hardcoded words-per-line guess:
  // a 40-words-per-line corpus models ~5x the per-line cost of an
  // 8-words-per-line one and must shift the modeled virtual times.
  // Enough lines that modeled per-item cost dominates per-task overhead.
  Rng rng(11);
  auto narrow =
      std::make_shared<const Corpus>(generate_corpus(rng, 20000, 8, 500));
  auto wide =
      std::make_shared<const Corpus>(generate_corpus(rng, 20000, 40, 500));
  auto mean_line_bytes = [](const Corpus& c) {
    std::size_t bytes = 0;
    for (const auto& line : c) bytes += line.size();
    return static_cast<double>(bytes) / static_cast<double>(c.size());
  };

  auto s8 = wordcount_spec(narrow);
  auto s40 = wordcount_spec(wide);
  EXPECT_DOUBLE_EQ(s8.item_bytes, mean_line_bytes(*narrow));
  EXPECT_DOUBLE_EQ(s40.item_bytes, mean_line_bytes(*wide));
  EXPECT_DOUBLE_EQ(s8.cpu_flops_per_item, s8.item_bytes);
  EXPECT_GT(s40.item_bytes, 3.0 * s8.item_bytes);
  EXPECT_GT(s8.pair_bytes, 8.0);  // word text + 8-byte count

  // Same line count, longer lines -> proportionally more modeled map time.
  // CPU-only keeps the comparison clean of per-block GPU launch overhead,
  // which is line-length independent and would mask the scaling.
  JobConfig cfg;
  cfg.mode = core::ExecutionMode::kModeled;
  cfg.use_gpu = false;
  core::JobStats st8, st40;
  {
    sim::Simulator simu;
    Cluster cluster(simu, 2, NodeConfig{});
    (void)wordcount_prs(cluster, narrow, cfg, &st8);
  }
  {
    sim::Simulator simu;
    Cluster cluster(simu, 2, NodeConfig{});
    (void)wordcount_prs(cluster, wide, cfg, &st40);
  }
  // The calibrated per-iteration dispatch overhead (~kPrsIterationOverhead)
  // is line-length independent and shared by both runs, so the ratio is
  // damped well below the 5x byte ratio — but the per-byte part must show.
  EXPECT_GT(st40.map_time, 1.15 * st8.map_time);
}

/// The spec's per-line and per-pair costs computed by a plain per-byte
/// scan with a word flag: space and tab separate words, any other byte is
/// a word byte.
struct BranchyShape {
  double item_bytes = 0.0;
  double pair_bytes = 0.0;
};

BranchyShape branchy_shape(const Corpus& corpus) {
  std::size_t bytes = 0, words = 0, word_bytes = 0;
  for (const auto& line : corpus) {
    bytes += line.size();
    bool in_word = false;
    for (const char ch : line) {
      const bool space = ch == ' ' || ch == '\t';
      if (!space) {
        ++word_bytes;
        if (!in_word) ++words;
      }
      in_word = !space;
    }
  }
  const auto n = static_cast<double>(corpus.size());
  const double line_bytes = n > 0 ? static_cast<double>(bytes) / n : 0.0;
  const double word_len = words > 0 ? static_cast<double>(word_bytes) /
                                          static_cast<double>(words)
                                    : 0.0;
  return {line_bytes, word_len + 8.0};
}

TEST(WordCount, CostModelScanMatchesTheBranchyLoopExactly) {
  // Corpora where a word-start count can go wrong: separator runs at
  // either end and inside, empty and separator-only lines, the other
  // C-locale whitespace (word bytes for the cost model, separators for the
  // map), NUL and 0xFF bytes, and 1-byte lines. Each one is checked as is
  // and repeated past three 4096-line scan chunks, at pool sizes 1 and 4.
  using namespace std::string_literals;
  const std::vector<Corpus> corpora = {
      {"  lead", "trail  ", "\t\tboth\t ", "many   spaces\t\t\tand \t tabs",
       " x y  z "},
      {"", " ", "\t", " \t \t", "", "word", ""},
      {"a\nb", "\v\f\r", "x\r\ny", " \n ", "mid\fdle\vword\r", "\n"},
      {"nul\0in\0side"s, "\xff\xff \xff", "\0"s, " \0 "s, "\xff", "\0\t\xff"s},
      {"x"},
      {" "},
      {"x", " ", "\t", "\0"s, "\xff", "", "y"},
  };
  struct PoolReset {
    ~PoolReset() { exec::ThreadPool::instance().configure(0); }
  } reset;
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    Corpus repeated;
    for (std::size_t i = 0; i < 3 * 4096 + 5; ++i) {
      repeated.push_back(corpora[c][i % corpora[c].size()]);
    }
    const Corpus* const both[] = {&corpora[c], &repeated};
    for (const Corpus* corpus : both) {
      const BranchyShape want = branchy_shape(*corpus);
      auto shared = std::make_shared<const Corpus>(*corpus);
      for (const int threads : {1, 4}) {
        exec::ThreadPool::instance().configure(threads);
        const auto spec = wordcount_spec(shared);
        SCOPED_TRACE("corpus " + std::to_string(c) + ", " +
                     std::to_string(corpus->size()) + " lines, " +
                     std::to_string(threads) + " threads");
        EXPECT_EQ(spec.item_bytes, want.item_bytes);
        EXPECT_EQ(spec.cpu_flops_per_item, want.item_bytes);
        EXPECT_EQ(spec.pair_bytes, want.pair_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace prs::apps
