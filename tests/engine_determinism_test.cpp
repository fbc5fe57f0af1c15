// Engine determinism sweep: for every built-in application and every
// level-2 policy, the job graph reproduces the result digest and virtual
// time of the stage runner it replaced (pinned below, captured from that
// runner at pipeline depth 1). At depths 2/4, where per-block D2H overlap
// and the stencil's halo graph change the *timing*, functional results
// may not change a single byte; and no host-pool thread count may leak
// into a digest or a virtual time.
//
// Digests come from svc::run_job_spec, the same canonical FNV-1a result
// digest prs_run and the job server print, so any regression caught here
// is exactly a user-visible result change.
#include <gtest/gtest.h>

#include <map>
#include <string>

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
svc::JobSpec app_spec(const std::string& app,
                      const std::string& policy = "static", int depth = 1) {
  svc::JobSpec spec;
  spec.app = app;
  spec.policy = policy;
  spec.pipeline_depth = depth;
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

/// What one run shows: the result digest and JobStats.elapsed.
struct Outcome {
  std::string digest;
  double elapsed = 0.0;
};

/// The stage runner's outcome for app_spec(app, policy) at depth 1.
Outcome stage_pin(const std::string& app, const std::string& policy) {
  static const std::map<std::string, std::map<std::string, Outcome>> pins = {
      {"cmeans",
       {{"static", {"de9498a2752edda5", 1.2068020134119752}},
        {"dynamic", {"8a978ed87801203d", 1.2074931970289722}},
        {"adaptive", {"ff588794177d4eb9", 1.2068012234823196}}}},
      {"kmeans",
       {{"static", {"d577cc8d98d6d9f2", 1.2068007025719796}},
        {"dynamic", {"87e336df13bcc3d5", 1.2074930397967307}},
        {"adaptive", {"3e13b2535dea3886", 1.2068006011405639}}}},
      {"gmm",
       {{"static", {"703897dae037855e", 1.2068054607556635}},
        {"dynamic", {"8776db97479d9f75", 1.2074968820776442}},
        {"adaptive", {"b8a00bfaae1d7057", 1.2068045930465547}}}},
      {"gemv",
       {{"static", {"2e2da806987a60a8", 1.2016933484446151}},
        {"dynamic", {"2e2da806987a60a8", 1.2013924467361023}},
        {"adaptive", {"2e2da806987a60a8", 1.2016933484446151}}}},
      {"dgemm",
       {{"static", {"a6c2dd578bfdf0f3", 1.201682422766243}},
        {"dynamic", {"a6c2dd578bfdf0f3", 1.2012378417245746}},
        {"adaptive", {"a6c2dd578bfdf0f3", 1.201682422766243}}}},
      {"fft",
       {{"static", {"afc039769dc48a31", 1.2017028278324404}},
        {"dynamic", {"2c14a8695b4ed784", 1.201289719627584}},
        {"adaptive", {"afc039769dc48a31", 1.2017028278324404}}}},
      {"wordcount",
       {{"static", {"ff2126bc8e56f40a", 1.2019610994109706}},
        {"dynamic", {"ff2126bc8e56f40a", 1.2019636016597952}},
        {"adaptive", {"ff2126bc8e56f40a", 1.2019610994109706}}}},
      {"stencil",
       {{"static", {"fd1284ed68020988", 1.2102348049433489}},
        {"dynamic", {"fd1284ed68020988", 1.2076183995509926}},
        {"adaptive", {"fd1284ed68020988", 1.2102291124560092}}}},
  };
  return pins.at(app).at(policy);
}

Outcome run(const svc::JobSpec& spec, int threads) {
  exec::ThreadPool::instance().configure(threads);
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
  exec::ThreadPool::instance().configure(0);
  EXPECT_FALSE(out.digest.empty()) << spec.app << " produced no digest";
  return {out.digest, out.stats.elapsed};
}

class EngineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDeterminism, GraphMatchesStagesAcrossDepthsAndThreads) {
  const std::string app = GetParam();
  const Outcome pin = stage_pin(app, "static");
  // FFT is the one modeled-only app: its digest hashes the JobStats —
  // virtual *timing* — which deeper pipelines legitimately improve. Every
  // functional app hashes result data, which may never change.
  const bool digest_is_timing = !app_spec(app).functional;
  for (const int depth : {1, 2, 4}) {
    const Outcome one = run(app_spec(app, "static", depth), 1);
    if (depth == 1) {
      // Depth 1 is the stage runner's schedule, timing included.
      EXPECT_EQ(one.digest, pin.digest) << app << " diverged at depth 1";
      EXPECT_EQ(one.elapsed, pin.elapsed) << app << " timing at depth 1";
    } else if (!digest_is_timing) {
      EXPECT_EQ(one.digest, pin.digest)
          << app << " diverged at depth=" << depth;
    }
    // Host-pool size may never leak into a digest, timing or results.
    const Outcome three = run(app_spec(app, "static", depth), 3);
    EXPECT_EQ(three.digest, one.digest)
        << app << " depth=" << depth << " digest depends on thread count";
    EXPECT_EQ(three.elapsed, one.elapsed)
        << app << " depth=" << depth << " timing depends on thread count";
  }
}

TEST_P(EngineDeterminism, DynamicPolicyIgnoresThreadCount) {
  // Dynamic rounds are graph nodes whose blocks are handed out as idle
  // daemons poll; the stage runner's digest and timing still hold.
  const std::string app = GetParam();
  const Outcome pin = stage_pin(app, "dynamic");
  for (const int threads : {1, 4}) {
    const Outcome got = run(app_spec(app, "dynamic"), threads);
    EXPECT_EQ(got.digest, pin.digest) << app << " threads=" << threads;
    EXPECT_EQ(got.elapsed, pin.elapsed) << app << " threads=" << threads;
  }
}

TEST_P(EngineDeterminism, AdaptivePolicyMatchesTheStageRunner) {
  // The adaptive policy learns from each iteration's busy times, so any
  // change in the schedule would move its later splits too.
  const std::string app = GetParam();
  const Outcome pin = stage_pin(app, "adaptive");
  const Outcome got = run(app_spec(app, "adaptive"), 2);
  EXPECT_EQ(got.digest, pin.digest) << app;
  EXPECT_EQ(got.elapsed, pin.elapsed) << app;
}

TEST_P(EngineDeterminism, GpuLessNodesRunAsCpuOnly) {
  // A node with no cards maps everything on its CPU: gpus=0 gives what
  // gpus=1 with the GPU backend disabled gives, with or without cpu_only.
  const std::string app = GetParam();
  svc::JobSpec reference = app_spec(app);
  reference.cpu_only = true;
  const Outcome want = run(reference, 1);
  for (const bool cpu_only : {false, true}) {
    svc::JobSpec spec = app_spec(app);
    spec.gpus = 0;
    spec.cpu_only = cpu_only;
    const Outcome got = run(spec, 1);
    EXPECT_EQ(got.digest, want.digest) << app << " cpu_only=" << cpu_only;
    EXPECT_EQ(got.elapsed, want.elapsed) << app << " cpu_only=" << cpu_only;
  }
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
