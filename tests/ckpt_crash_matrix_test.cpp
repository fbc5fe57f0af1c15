// Crash-matrix integration tests for checkpoint/restart: every iterative
// app x crash point (early / mid / late) x schedule policy. A node_crash is
// injected mid-run; the run halts on the crashed iteration, a fresh
// "process" (fresh Simulator + Cluster, full node set) resumes from the
// latest snapshot, and the final application state must be byte-identical
// to the fault-free golden run, with every distinct iteration counted exactly
// once in the stats. Also covered: checkpoint-enabled fault-free runs, and
// resuming an already-finished run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/cmeans.hpp"
#include "apps/gmm.hpp"
#include "apps/kmeans.hpp"
#include "apps/stencil.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/store.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "data/dataset.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"

namespace prs::apps {
namespace {

constexpr int kNodes = 4;
constexpr std::uint64_t kDataSeed = 77;
constexpr std::uint64_t kAppSeed = 99;
constexpr std::uint64_t kFaultSeed = 1;

std::string hex_digest(const ckpt::Writer& w) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(ckpt::fnv1a64(w.bytes())));
  return buf;
}

std::string format_seconds(double t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", t);
  return std::string(buf) + "s";
}

/// Runs one app end-to-end and digests its final state. The digest covers
/// every float the app carries across iterations, so any divergence in any
/// iteration shows up.
using AppRunner = std::function<std::string(
    core::Cluster&, const core::JobConfig&, const ckpt::CheckpointConfig*,
    core::JobStats*)>;

std::string run_cmeans(core::Cluster& cluster, const core::JobConfig& cfg,
                       const ckpt::CheckpointConfig* ckp,
                       core::JobStats* stats) {
  Rng rng(kDataSeed);
  auto ds = data::generate_blobs(rng, 240, 3, 3, 10.0, 1.0);
  CmeansParams p;
  p.clusters = 3;
  p.max_iterations = 5;
  p.epsilon = 0.0;  // never converge early: fixed iteration count
  p.seed = kAppSeed;
  auto res = cmeans_prs(cluster, ds.points, p, cfg, stats, ckp);
  ckpt::Writer w;
  ckpt::put_matrix(w, res.centers);
  w.f64(res.objective);
  w.i32(res.iterations);
  return hex_digest(w);
}

std::string run_kmeans(core::Cluster& cluster, const core::JobConfig& cfg,
                       const ckpt::CheckpointConfig* ckp,
                       core::JobStats* stats) {
  Rng rng(kDataSeed);
  auto ds = data::generate_blobs(rng, 240, 3, 3, 10.0, 1.0);
  KmeansParams p;
  p.clusters = 3;
  p.max_iterations = 5;
  p.epsilon = 0.0;
  p.seed = kAppSeed;
  auto res = kmeans_prs(cluster, ds.points, p, cfg, stats, ckp);
  ckpt::Writer w;
  ckpt::put_matrix(w, res.centers);
  w.f64(res.inertia);
  w.i32(res.iterations);
  return hex_digest(w);
}

std::string run_gmm(core::Cluster& cluster, const core::JobConfig& cfg,
                    const ckpt::CheckpointConfig* ckp,
                    core::JobStats* stats) {
  Rng rng(kDataSeed);
  auto ds = data::generate_blobs(rng, 240, 3, 3, 10.0, 1.0);
  GmmParams p;
  p.components = 3;
  p.max_iterations = 5;
  p.epsilon = 0.0;
  p.seed = kAppSeed;
  auto model = gmm_prs(cluster, ds.points, p, cfg, stats, ckp);
  ckpt::Writer w;
  w.u64(model.weights.size());
  for (double wm : model.weights) w.f64(wm);
  ckpt::put_matrix(w, model.means);
  ckpt::put_matrix(w, model.variances);
  w.f64(model.log_likelihood);
  w.i32(model.iterations);
  return hex_digest(w);
}

linalg::MatrixD stencil_grid() {
  linalg::MatrixD g(26, 18, 0.0);
  for (std::size_t c = 0; c < g.cols(); ++c) {
    g(0, c) = 1.0;
    g(g.rows() - 1, c) = std::sin(0.3 * static_cast<double>(c));
  }
  for (std::size_t r = 0; r < g.rows(); ++r) {
    g(r, 0) = 0.5;
    g(r, g.cols() - 1) = -0.25;
  }
  return g;
}

std::string run_stencil(core::Cluster& cluster, const core::JobConfig& cfg,
                        const ckpt::CheckpointConfig* ckp,
                        core::JobStats* stats) {
  StencilParams p;
  p.max_iterations = 6;
  p.epsilon = 0.0;
  auto res = stencil_prs(cluster, stencil_grid(), p, cfg, stats, ckp);
  ckpt::Writer w;
  ckpt::put_matrix(w, res.grid);
  w.f64(res.residual);
  w.i32(res.iterations);
  return hex_digest(w);
}

struct AppEntry {
  const char* name;
  AppRunner run;
};

const AppEntry kApps[] = {
    {"cmeans", run_cmeans},
    {"kmeans", run_kmeans},
    {"gmm", run_gmm},
    {"stencil", run_stencil},
};

struct RunResult {
  std::string digest;
  core::JobStats stats;
  bool crashed = false;  // run halted on a node crash
  std::string error;
};

/// One complete "process": fresh simulator, fresh full cluster, fresh policy
/// instance. Checkpoint state crosses runs only through `store`.
RunResult run_once(const AppEntry& app, const std::string& policy_name,
                   const std::string& fault_spec,
                   ckpt::CheckpointStore* store) {
  sim::Simulator simu;
  core::Cluster cluster(simu, kNodes, core::NodeConfig{});
  core::JobConfig cfg;
  cfg.mode = core::ExecutionMode::kFunctional;
  // Skip the large one-time startup charge so the crash fractions below map
  // onto distinct iterations instead of all landing inside iteration 0.
  cfg.charge_job_startup = false;
  auto policy = core::make_policy(policy_name);
  cfg.policy = policy.get();

  std::unique_ptr<fault::FaultInjector> injector;
  if (!fault_spec.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        simu, fault::FaultPlan::parse(fault_spec), kFaultSeed);
    cfg.faults = injector.get();
  }

  ckpt::CheckpointConfig ck;
  const ckpt::CheckpointConfig* ckp = nullptr;
  if (store != nullptr) {
    ck.store = store;
    ck.interval = 2;
    ck.recover = true;
    ck.prefix = app.name;
    ck.run_seed = kAppSeed;
    ck.fault_seed = kFaultSeed;
    ckp = &ck;
  }

  RunResult out;
  try {
    out.digest = app.run(cluster, cfg, ckp, &out.stats);
  } catch (const Error& e) {
    out.crashed = true;
    out.error = e.what();
  }
  return out;
}

// -- the matrix -------------------------------------------------------------

TEST(CkptCrashMatrix, EveryAppRecoversByteIdenticallyFromEveryCrashPoint) {
  // Early / mid / late fractions of the golden run's virtual span. Early
  // lands in iteration 0 (only the baseline snapshot exists), late lands in
  // the final iterations (the run resumes from a mid-run snapshot).
  const double fracs[] = {0.02, 0.5, 0.97};

  for (const AppEntry& app : kApps) {
    for (const char* policy : {"static", "adaptive"}) {
      const RunResult golden = run_once(app, policy, "", nullptr);
      ASSERT_FALSE(golden.crashed) << app.name << "/" << policy
                                   << ": " << golden.error;
      const int expected_iters = golden.stats.iterations;
      ASSERT_GE(expected_iters, 4) << app.name;
      ASSERT_GT(golden.stats.elapsed, 0.0);

      for (double frac : fracs) {
        SCOPED_TRACE(std::string(app.name) + "/" + policy + " crash@" +
                     std::to_string(frac));
        ckpt::MemoryCheckpointStore store;
        const std::string spec =
            "node_crash:node2:t=" +
            format_seconds(frac * golden.stats.elapsed);

        const RunResult crashed = run_once(app, policy, spec, &store);
        if (crashed.crashed) {
          EXPECT_NE(crashed.error.find("node crash during iteration"),
                    std::string::npos)
              << crashed.error;
          // Fresh process, full cluster, no faults: replay from the latest
          // snapshot must reproduce the fault-free bytes, and the stats must
          // count each distinct iteration exactly once (no double-replay).
          const RunResult resumed = run_once(app, policy, "", &store);
          ASSERT_FALSE(resumed.crashed) << resumed.error;
          EXPECT_EQ(resumed.digest, golden.digest);
          EXPECT_EQ(resumed.stats.iterations, expected_iters);
        } else {
          // The crash activated after the last iteration's work: the
          // fault-tolerant path ran end to end and must still match the
          // fast-path bytes (rank-ordered shuffle combine).
          EXPECT_EQ(crashed.digest, golden.digest);
          EXPECT_EQ(crashed.stats.iterations, expected_iters);
        }
      }
    }
  }
}

TEST(CkptCrashMatrix, CheckpointingAloneDoesNotChangeResults) {
  for (const AppEntry& app : kApps) {
    const RunResult golden = run_once(app, "static", "", nullptr);
    ckpt::MemoryCheckpointStore store;
    const RunResult with_ckpt = run_once(app, "static", "", &store);
    ASSERT_FALSE(with_ckpt.crashed) << with_ckpt.error;
    EXPECT_EQ(with_ckpt.digest, golden.digest) << app.name;
    EXPECT_EQ(with_ckpt.stats.iterations, golden.stats.iterations);
    // Snapshot IO is on the books: the checkpointed run takes longer on the
    // virtual clock even though the numerics are untouched.
    EXPECT_GT(with_ckpt.stats.elapsed, golden.stats.elapsed) << app.name;
    EXPECT_FALSE(ckpt::latest_snapshot_key(store, app.name).empty());
  }
}

TEST(CkptCrashMatrix, ResumingAFinishedRunReplaysNothing) {
  const AppEntry& app = kApps[0];  // cmeans
  const RunResult golden = run_once(app, "static", "", nullptr);
  ckpt::MemoryCheckpointStore store;
  const RunResult first = run_once(app, "static", "", &store);
  ASSERT_FALSE(first.crashed) << first.error;

  const RunResult again = run_once(app, "static", "", &store);
  ASSERT_FALSE(again.crashed) << again.error;
  EXPECT_EQ(again.digest, golden.digest);
  EXPECT_EQ(again.stats.iterations, golden.stats.iterations);
  // The resumed run restored the final snapshot and replayed no work: the
  // task counters are exactly the restored totals, and the only new virtual
  // time is the restore IO (well under one iteration).
  EXPECT_EQ(again.stats.map_tasks, first.stats.map_tasks);
  EXPECT_GE(again.stats.elapsed, first.stats.elapsed - 1e-12);
  EXPECT_LT(again.stats.elapsed - first.stats.elapsed, 0.005);
}

TEST(Iterative, CrashedNodeStaysOutOfLaterIterationsWithoutCheckpoints) {
  // node2 crashes at t=0 and no checkpoints are kept. The first job
  // blacklists it in its first attempt and finishes over the survivors;
  // every later iteration starts without it instead of rediscovering the
  // crash. The survivors' split is the same in every iteration, so the
  // bytes are those of a run that rediscovers it each time.
  const std::pair<const AppEntry*, const char*> pins[] = {
      {&kApps[0], "b77830ef47daa397"},
      {&kApps[1], "61456deca64446c6"},
      {&kApps[2], "a5824ab850767f84"},
  };
  for (const auto& [app, digest] : pins) {
    const RunResult run =
        run_once(*app, "static", "node_crash:node2:t=0", nullptr);
    ASSERT_FALSE(run.crashed) << app->name << ": " << run.error;
    EXPECT_EQ(run.stats.iterations, 5) << app->name;
    EXPECT_EQ(run.stats.blacklisted_nodes, 1) << app->name;
    EXPECT_EQ(run.stats.job_attempts, 2) << app->name;
    EXPECT_EQ(run.digest, digest) << app->name;
  }
}

}  // namespace
}  // namespace prs::apps
