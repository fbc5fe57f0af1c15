// Unit tests for the prs_run command-line parser: its job flags are the
// svc::JobSpec SUBMIT keys, parsed and validated by the spec's own code.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/schedule_policy.hpp"
#include "tools/cli_options.hpp"

namespace prs::tools {
namespace {

bool parse(std::vector<const char*> args, Options& out, std::string& err) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prs_run"));
  for (auto* a : args) argv.push_back(const_cast<char*>(a));
  return parse_options(static_cast<int>(argv.size()), argv.data(), out, err);
}

bool parse_strings(const std::vector<std::string>& args, Options& out,
                   std::string& err) {
  std::vector<const char*> ptrs;
  for (const std::string& a : args) ptrs.push_back(a.c_str());
  return parse(ptrs, out, err);
}

TEST(Cli, DefaultsAreSane) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({}, o, err)) << err;
  EXPECT_EQ(o.job, svc::JobSpec{});
  EXPECT_EQ(o.job.app, "cmeans");
  EXPECT_EQ(o.job.nodes, 4);
  EXPECT_FALSE(o.job.functional);
  EXPECT_FALSE(o.show_help);
}

TEST(Cli, ParsesAllValueOptions) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--app=gmm", "--testbed=bigred2", "--nodes=8",
                     "--gpus=2", "--points=12345", "--dims=60",
                     "--clusters=7", "--iterations=3", "--rows=11",
                     "--cols=22", "--policy=dynamic",
                     "--cpu-fraction=0.25", "--seed=9"},
                    o, err))
      << err;
  EXPECT_EQ(o.job.app, "gmm");
  EXPECT_EQ(o.job.testbed, "bigred2");
  EXPECT_EQ(o.job.nodes, 8);
  EXPECT_EQ(o.job.gpus, 2);
  EXPECT_EQ(o.job.points, 12345u);
  EXPECT_EQ(o.job.dims, 60u);
  EXPECT_EQ(o.job.clusters, 7);
  EXPECT_EQ(o.job.iterations, 3);
  EXPECT_EQ(o.job.rows, 11u);
  EXPECT_EQ(o.job.cols, 22u);
  EXPECT_EQ(o.job.policy, "dynamic");
  EXPECT_DOUBLE_EQ(o.job.cpu_fraction, 0.25);
  EXPECT_EQ(o.job.seed, 9u);
}

TEST(Cli, FlagsAndAliases) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--functional", "--gpu-only", "--lines=77"}, o, err));
  EXPECT_TRUE(o.job.functional);
  EXPECT_TRUE(o.job.gpu_only);
  EXPECT_EQ(o.job.points, 77u);
  Options o2;
  EXPECT_TRUE(parse({"--signals=64", "--components=3"}, o2, err)) << err;
  EXPECT_EQ(o2.job.points, 64u);
  EXPECT_EQ(o2.job.clusters, 3);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Options o;
  std::string err;
  EXPECT_FALSE(parse({"--bogus=1"}, o, err));
  EXPECT_NE(err.find("--bogus"), std::string::npos);
  EXPECT_FALSE(parse({"--nodes=zero"}, o, err));
  EXPECT_FALSE(parse({"--nodes=0"}, o, err));
  EXPECT_FALSE(parse({"--cpu-fraction=1.5"}, o, err));
  EXPECT_FALSE(parse({"--testbed=mars"}, o, err));
  EXPECT_FALSE(parse({"--policy=greedy"}, o, err));
  EXPECT_FALSE(parse({"positional"}, o, err));
}

TEST(Cli, PolicySelection) {
  // --policy accepts the three level-2 policies; static is the default.
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--policy=adaptive"}, o, err)) << err;
  EXPECT_EQ(o.job.policy, "adaptive");
  // Adaptive refines the static dispatch path.
  EXPECT_EQ(core::make_policy(o.job.policy)->dispatch(),
            core::SchedulingMode::kStatic);

  Options o2;
  ASSERT_TRUE(parse({}, o2, err));
  EXPECT_EQ(o2.job.policy, "static");
  EXPECT_EQ(core::make_policy(o2.job.policy)->name(), "static");

  Options o3;
  ASSERT_TRUE(parse({"--policy=dynamic"}, o3, err));
  EXPECT_EQ(o3.job.policy, "dynamic");
  EXPECT_EQ(core::make_policy(o3.job.policy)->dispatch(),
            core::SchedulingMode::kDynamic);
}

TEST(Cli, EngineAndSchedulingAreUnknownOptions) {
  // One engine runs every job and --policy names the scheduler, so the
  // flags that chose between them are gone.
  for (const char* arg : {"--engine=graph", "--engine=stages",
                          "--scheduling=dynamic", "--scheduling=static"}) {
    Options o;
    std::string err;
    EXPECT_FALSE(parse({arg}, o, err)) << arg;
    EXPECT_NE(err.find("unknown option"), std::string::npos) << err;
  }
}

TEST(Cli, PipelineDepthAndGraphDumpNeedNoEngineFlag) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--pipeline-depth=4", "--graph-dump=/tmp/job.dot"}, o,
                    err))
      << err;
  EXPECT_EQ(o.job.job_config().pipeline_depth, 4);
  EXPECT_EQ(o.graph_dump, "/tmp/job.dot");
  Options adaptive;
  EXPECT_TRUE(parse({"--pipeline-depth=2", "--policy=adaptive"}, adaptive,
                    err))
      << err;
  // Dynamic blocks exist only once their round runs: nothing to pipeline.
  Options dynamic;
  EXPECT_FALSE(parse({"--pipeline-depth=2", "--policy=dynamic"}, dynamic,
                     err));
  EXPECT_NE(err.find("policy=dynamic"), std::string::npos) << err;
  Options shallow;
  EXPECT_TRUE(parse({"--pipeline-depth=1", "--policy=dynamic"}, shallow,
                    err))
      << err;
}

TEST(Cli, RejectsContradictoryBackends) {
  Options o;
  std::string err;
  EXPECT_FALSE(parse({"--gpu-only", "--cpu-only"}, o, err));
  EXPECT_FALSE(parse({"--gpu-only", "--gpus=0"}, o, err));
}

TEST(Cli, HelpAndListShortCircuit) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--help"}, o, err));
  EXPECT_TRUE(o.show_help);
  Options o2;
  EXPECT_TRUE(parse({"--list"}, o2, err));
  EXPECT_TRUE(o2.show_list);
  EXPECT_FALSE(usage().empty());
}

TEST(Cli, NodeConfigMapping) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--testbed=bigred2", "--gpus=2"}, o, err));
  auto cfg = o.job.node_config();
  EXPECT_EQ(cfg.cpu.name, "BigRed2 AMD Opteron 6212");
  EXPECT_EQ(cfg.gpu.name, "NVIDIA Tesla K20");
  EXPECT_EQ(cfg.gpus_per_node, 2);

  Options phi;
  ASSERT_TRUE(parse({"--testbed=phi"}, phi, err));
  EXPECT_EQ(phi.job.node_config().gpu.name, "Intel Xeon Phi 5110P");
}

TEST(Cli, JobConfigMapping) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--policy=dynamic", "--functional", "--cpu-only",
                     "--cpu-fraction=0.5"},
                    o, err));
  auto cfg = o.job.job_config();
  EXPECT_EQ(o.job.policy, "dynamic");
  EXPECT_EQ(cfg.policy, nullptr);  // the caller builds the policy
  EXPECT_EQ(cfg.mode, core::ExecutionMode::kFunctional);
  EXPECT_FALSE(cfg.use_gpu);
  EXPECT_TRUE(cfg.use_cpu);
  EXPECT_DOUBLE_EQ(cfg.cpu_fraction_override, 0.5);
}

TEST(Cli, CheckpointFlagsParseAndValidate) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--app=cmeans", "--functional", "--checkpoint-every=3",
                     "--checkpoint-dir=/tmp/ck", "--resume"},
                    o, err))
      << err;
  EXPECT_EQ(o.job.checkpoint_every, 3);
  EXPECT_EQ(o.job.checkpoint_dir, "/tmp/ck");
  EXPECT_TRUE(o.job.resume);

  // --resume alone keeps the default interval 1 but still needs a
  // directory.
  Options dirless;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--resume"}, dirless,
                     err));
  Options everyless;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--checkpoint-every=2"},
                     everyless, err));

  // Snapshots carry real app state: modeled runs and the non-iterative apps
  // have none to carry.
  Options modeled;
  EXPECT_FALSE(parse({"--app=cmeans", "--checkpoint-every=2",
                      "--checkpoint-dir=/tmp/ck"},
                     modeled, err));
  Options wrong_app;
  EXPECT_FALSE(parse({"--app=gemv", "--functional", "--checkpoint-every=2",
                      "--checkpoint-dir=/tmp/ck"},
                     wrong_app, err));
  Options repeated;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--repeat=2",
                      "--checkpoint-every=2", "--checkpoint-dir=/tmp/ck"},
                     repeated, err));
  Options zero;
  EXPECT_FALSE(parse({"--app=cmeans", "--functional", "--checkpoint-every=0",
                      "--checkpoint-dir=/tmp/ck"},
                     zero, err));
}

// Regression for the silent-ignore path: --help/--list used to stop the
// parser, so anything after them — including typos — was accepted without
// validation. Unknown flags must now fail, naming the flag, no matter
// where they appear.
TEST(Cli, UnknownFlagAfterHelpOrListIsRejected) {
  Options o;
  std::string err;
  EXPECT_FALSE(parse({"--list", "--bogus=1"}, o, err));
  EXPECT_NE(err.find("--bogus"), std::string::npos) << err;

  Options o2;
  EXPECT_FALSE(parse({"--help", "--not-a-flag=2"}, o2, err));
  EXPECT_NE(err.find("--not-a-flag"), std::string::npos) << err;

  // Valid flags after --help still parse (and --help still wins).
  Options o3;
  EXPECT_TRUE(parse({"--help", "--nodes=2"}, o3, err)) << err;
  EXPECT_TRUE(o3.show_help);
  EXPECT_EQ(o3.job.nodes, 2);
}

TEST(Cli, ThrowingParserNamesTheFlag) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prs_run"));
  argv.push_back(const_cast<char*>("--list"));
  argv.push_back(const_cast<char*>("--bogus=1"));
  try {
    parse_options_or_throw(static_cast<int>(argv.size()), argv.data());
    FAIL() << "expected prs::InvalidArgument";
  } catch (const prs::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
  }
}

TEST(Cli, NewAppsAccepted) {
  Options o;
  std::string err;
  EXPECT_TRUE(parse({"--app=dgemm", "--functional"}, o, err)) << err;
  EXPECT_TRUE(parse({"--app=stencil", "--functional"}, o, err)) << err;
  // Stencil checkpointing is allowed (it snapshots through run_iterative).
  EXPECT_TRUE(parse({"--app=stencil", "--functional", "--checkpoint-every=2",
                     "--checkpoint-dir=/tmp/ck"},
                    o, err))
      << err;
}

TEST(Cli, ClientFlagValidation) {
  Options o;
  std::string err;
  // Client actions need --server.
  EXPECT_FALSE(parse({"--submit"}, o, err));
  EXPECT_NE(err.find("--server"), std::string::npos) << err;
  // --server needs an action.
  Options o2;
  EXPECT_FALSE(parse({"--server=/tmp/x.sock"}, o2, err));
  // At most one action.
  Options o3;
  EXPECT_FALSE(parse({"--server=/tmp/x.sock", "--submit", "--wait-job=3"},
                     o3, err));
  // A full submit line parses.
  Options o4;
  EXPECT_TRUE(parse({"--server=/tmp/x.sock", "--tenant=alice", "--submit",
                     "--app=kmeans", "--gpu-mem=1048576"},
                    o4, err))
      << err;
  EXPECT_EQ(o4.tenant, "alice");
  EXPECT_EQ(o4.job.gpu_mem_bytes, 1048576u);
}

TEST(Cli, OptionsMapToJobSpec) {
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--app=gmm", "--testbed=bigred2", "--nodes=3",
                     "--gpus=2", "--points=777", "--policy=adaptive",
                     "--functional", "--seed=5"},
                    o, err))
      << err;
  const svc::JobSpec& s = o.job;
  EXPECT_EQ(s.app, "gmm");
  EXPECT_EQ(s.testbed, "bigred2");
  EXPECT_EQ(s.policy, "adaptive");
  EXPECT_EQ(s.nodes, 3);
  EXPECT_EQ(s.gpus, 2);
  EXPECT_EQ(s.points, 777u);
  EXPECT_TRUE(s.functional);
  EXPECT_EQ(s.seed, 5u);
  EXPECT_EQ(s.vgpus_needed(), 6);
  EXPECT_NO_THROW(s.validate());
}

/// The prs_run argv a SUBMIT token string maps to: '-' for '_', --gpu-mem
/// for gpu_mem_bytes, and a bool field's key=1 as the bare --key.
std::vector<std::string> flags_from_tokens(const std::string& tokens) {
  std::set<std::string> bools;
  const svc::JobSpec def;
  svc::visit_job_spec_fields(def, [&](const char* key, const auto& f) {
    if constexpr (std::is_same_v<std::decay_t<decltype(f)>, bool>) {
      bools.insert(key);
    }
  });
  std::vector<std::string> args;
  std::size_t pos = 0;
  while (pos < tokens.size()) {
    std::size_t sp = tokens.find(' ', pos);
    if (sp == std::string::npos) sp = tokens.size();
    const std::string tok = tokens.substr(pos, sp - pos);
    pos = sp + 1;
    const std::size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    std::string flag = key == "gpu_mem_bytes" ? "--gpu-mem" : "--" + key;
    for (char& c : flag) {
      if (c == '_') c = '-';
    }
    const bool bare = bools.count(key) > 0 && value == "1";
    args.push_back(bare ? flag : flag + "=" + value);
  }
  return args;
}

TEST(Cli, JobFlagsRoundTripThroughSubmitTokens) {
  svc::JobSpec gpu;
  gpu.app = "stencil";
  gpu.testbed = "bigred2";
  gpu.policy = "adaptive";
  gpu.nodes = 3;
  gpu.gpus = 2;
  gpu.points = 777;
  gpu.dims = 9;
  gpu.clusters = 5;
  gpu.iterations = 7;
  gpu.rows = 65;
  gpu.cols = 33;
  gpu.functional = true;
  gpu.gpu_only = true;
  gpu.cpu_fraction = 0.25;
  gpu.seed = 5;
  gpu.pipeline_depth = 2;
  gpu.fault_spec = "slow_node:node1:x2";
  gpu.fault_seed = 7;
  gpu.checkpoint_every = 3;
  gpu.checkpoint_dir = "/tmp/ck";
  gpu.resume = true;
  gpu.gpu_mem_bytes = 1048576;
  // gpu_only and cpu_only exclude each other, so the second spec moves the
  // other one.
  svc::JobSpec cpu = gpu;
  cpu.gpu_only = false;
  cpu.cpu_only = true;

  // Between them the two specs move every one of the 23 fields.
  const svc::JobSpec def;
  std::set<std::string> moved;
  for (const svc::JobSpec* spec : {&gpu, &cpu}) {
    svc::visit_job_spec_fields2(
        *spec, def, [&](const char* key, const auto& v, const auto& d) {
          if (!(v == d)) moved.insert(key);
        });
  }
  int fields = 0;
  svc::visit_job_spec_fields(def, [&](const char*, const auto&) { ++fields; });
  EXPECT_EQ(fields, 23);
  EXPECT_EQ(moved.size(), static_cast<std::size_t>(fields));

  for (const svc::JobSpec* spec : {&gpu, &cpu}) {
    const std::vector<std::string> args = flags_from_tokens(spec->to_tokens());
    Options o;
    std::string err;
    ASSERT_TRUE(parse_strings(args, o, err)) << err;
    EXPECT_EQ(o.job, *spec) << spec->to_tokens();
    EXPECT_EQ(o.job.to_tokens(), spec->to_tokens());
  }
}

TEST(Cli, WireSpellingsAreUnknownOptions) {
  // prs_run takes each key with '-' for '_' (and --gpu-mem for
  // gpu_mem_bytes); the wire spelling is not a second name for it.
  for (const char* arg : {"--pipeline_depth=2", "--cpu_fraction=0.5",
                          "--gpu_mem_bytes=64", "--gpu-mem-bytes=64"}) {
    Options o;
    std::string err;
    EXPECT_FALSE(parse({arg}, o, err)) << arg;
    EXPECT_NE(err.find("unknown option"), std::string::npos) << err;
  }
  // A value-taking job flag is not a bare flag.
  Options o;
  std::string err;
  EXPECT_FALSE(parse({"--nodes"}, o, err));
  EXPECT_NE(err.find("unrecognized argument: --nodes"), std::string::npos)
      << err;
}

TEST(Cli, JobValuesFollowTheSpecRules) {
  // The values prs_serve admits: a negative CPU share keeps the analytic
  // split, and a zero memory quota is the whole card.
  Options o;
  std::string err;
  ASSERT_TRUE(parse({"--cpu-fraction=-1", "--gpu-mem=0"}, o, err)) << err;
  EXPECT_EQ(o.job, svc::JobSpec{});
  // ...and the ones it rejects, with the spec's message.
  for (const char* arg : {"--cpu-fraction=nan", "--app=frobnicate"}) {
    Options bad;
    EXPECT_FALSE(parse({arg}, bad, err)) << arg;
  }
  Options stencil;
  EXPECT_FALSE(parse({"--app=stencil"}, stencil, err));
  EXPECT_EQ(err, "stencil requires functional mode");
}

}  // namespace
}  // namespace prs::tools
