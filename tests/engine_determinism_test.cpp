// Engine determinism sweep (the task-graph acceptance property): for every
// built-in application, the task-graph engine produces byte-identical
// result digests to the legacy stage runner — at pipeline depth 1 (where
// the schedule itself is the legacy timeline) AND at depths 2/4 (where
// per-block D2H overlap and pipelined iteration windows change the
// *timing* but may not change a single result byte) — across host-pool
// thread counts. A second sweep checks the dynamic policy, whose block
// hand-out is time-driven, across thread counts too.
//
// Digests come from svc::run_job_spec, the same canonical FNV-1a result
// digest prs_run and the job server print, so any regression caught here
// is exactly a user-visible result change.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "exec/thread_pool.hpp"
#include "svc/job_spec.hpp"
#include "svc/launcher.hpp"

namespace prs {
namespace {

/// Small-but-representative spec for each app: functional where the app
/// supports it (real data, real kernels), modeled for the FFT batch.
svc::JobSpec app_spec(const std::string& app) {
  svc::JobSpec spec;
  spec.app = app;
  spec.nodes = 3;
  spec.functional = true;
  spec.points = 400;
  spec.dims = 6;
  spec.clusters = 3;
  spec.iterations = 4;
  spec.rows = 96;
  spec.cols = 64;
  if (app == "dgemm") {
    spec.rows = 48;
    spec.cols = 40;
    spec.dims = 24;
  } else if (app == "stencil") {
    spec.dims = 40;  // grid rows
    spec.cols = 32;
    spec.iterations = 6;
  } else if (app == "fft") {
    spec.functional = false;  // modeled-only app
    spec.points = 64;
  } else if (app == "wordcount") {
    spec.points = 300;  // corpus lines
  }
  return spec;
}

std::string run_digest(const std::string& app, const std::string& engine,
                       int depth, int threads,
                       const std::string& policy_name = "static") {
  exec::ThreadPool::instance().configure(threads);
  svc::JobSpec spec = app_spec(app);
  spec.engine = engine;
  spec.pipeline_depth = depth;
  spec.policy = policy_name;
  spec.validate();
  sim::Simulator simu;
  const core::NodeConfig node = spec.node_config();
  core::Cluster cluster(simu, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  Rng rng(spec.seed);
  const svc::LaunchOutcome out =
      svc::run_job_spec(spec, cluster, node, cfg, rng, nullptr);
  EXPECT_FALSE(out.digest.empty()) << app << " produced no digest";
  return out.digest;
}

class EngineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDeterminism, GraphMatchesStagesAcrossDepthsAndThreads) {
  const std::string app = GetParam();
  // FFT is the one modeled-only app: its digest hashes the JobStats —
  // virtual *timing* — which deeper pipelines legitimately improve. Every
  // functional app hashes result data, which may never change.
  const bool digest_is_timing = app_spec(app).functional == false;
  const std::string reference = run_digest(app, "stages", 1, 1);
  for (const int depth : {1, 2, 4}) {
    const std::string at_one_thread = run_digest(app, "graph", depth, 1);
    if (depth == 1 || !digest_is_timing) {
      // Depth 1 is the faithful schedule (timing included); functional
      // results are depth-invariant at any depth.
      EXPECT_EQ(at_one_thread, reference)
          << app << " diverged at depth=" << depth;
    }
    // Host-pool size may never leak into a digest, timing or results.
    EXPECT_EQ(run_digest(app, "graph", depth, 3), at_one_thread)
        << app << " depth=" << depth << " digest depends on thread count";
  }
  // The legacy engine itself is thread-count invariant too.
  EXPECT_EQ(run_digest(app, "stages", 1, 3), reference)
      << app << " legacy engine diverged at threads=3";
}

TEST_P(EngineDeterminism, DynamicPolicyIgnoresThreadCount) {
  // Job specs pair the dynamic policy with the stage runner only (the
  // graph engine needs static dispatch).
  const std::string app = GetParam();
  const std::string at_one = run_digest(app, "stages", 1, 1, "dynamic");
  EXPECT_EQ(run_digest(app, "stages", 1, 4, "dynamic"), at_one)
      << app << " dynamic digest depends on thread count";
  exec::ThreadPool::instance().configure(0);
}

INSTANTIATE_TEST_SUITE_P(AllApps, EngineDeterminism,
                         ::testing::Values("cmeans", "kmeans", "gmm", "gemv",
                                           "dgemm", "fft", "wordcount",
                                           "stencil"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace prs
