// Tests for the fault-injection subsystem (prs::fault) and faulted jobs in
// core: spec-string parsing, byte-reproducible fault schedules, output
// equality under every fault class and policy, crash recovery via
// blacklisting + re-splitting (announced and diagnosed from a stall), and
// straggler speculation.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "common/rng.hpp"

#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "core/schedule_policy.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace prs::core {
namespace {

// -- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesClausesOfEveryKind) {
  auto plan = fault::FaultPlan::parse(
      "gpu_hang:node1:t=2ms; link_drop:node0-node2:p=0.01,"
      "slow_node:node3:x4:gpu; node_crash:*:t=1500us;"
      "link_delay:*:t=1ms:p=0.1; link_dup:node0-*:p=0.02;"
      "task_error:node1:p=0.05");
  ASSERT_EQ(plan.clauses.size(), 7u);
  EXPECT_EQ(plan.clauses[0].kind, fault::FaultKind::kGpuHang);
  EXPECT_EQ(plan.clauses[0].node_a, 1);
  EXPECT_DOUBLE_EQ(plan.clauses[0].at, 2e-3);
  EXPECT_EQ(plan.clauses[1].kind, fault::FaultKind::kLinkDrop);
  EXPECT_EQ(plan.clauses[1].node_a, 0);
  EXPECT_EQ(plan.clauses[1].node_b, 2);
  EXPECT_DOUBLE_EQ(plan.clauses[1].probability, 0.01);
  EXPECT_DOUBLE_EQ(plan.clauses[2].factor, 4.0);
  EXPECT_EQ(plan.clauses[2].device, fault::DeviceFilter::kGpu);
  EXPECT_EQ(plan.clauses[3].node_a, -1);  // wildcard
  EXPECT_DOUBLE_EQ(plan.clauses[3].at, 1.5e-3);
  EXPECT_DOUBLE_EQ(plan.clauses[4].extra_delay, 1e-3);
  EXPECT_EQ(plan.clauses[5].node_a, 0);
  EXPECT_EQ(plan.clauses[5].node_b, -1);
  EXPECT_DOUBLE_EQ(plan.clauses[6].probability, 0.05);
}

TEST(FaultPlan, BlankSpecIsEmptyAndMalformedSpecsThrow) {
  EXPECT_TRUE(fault::FaultPlan::parse("").empty());
  EXPECT_TRUE(fault::FaultPlan::parse("  ;  , ").empty());
  EXPECT_THROW(fault::FaultPlan::parse("bogus:node1"), InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("gpu_hang"), InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("gpu_hang:node1:t=2parsecs"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("link_drop:node0:p=0.5"),
               InvalidArgument);  // link kinds need a-b targets
  EXPECT_THROW(fault::FaultPlan::parse("task_error:node0:p=1.5"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("slow_node:node0"), InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("link_delay:*:p=0.1"),
               InvalidArgument);
}

// -- toy job under faults ---------------------------------------------------

/// Item i emits (i % kKeys, i); the reduced output holds per-residue index
/// sums — exact integers, independent of block layout, shuffle bucketing,
/// and merge order, so any silent drop or duplication under faults changes
/// the value.
constexpr int kKeys = 37;

MapReduceSpec<int, long long> sum_spec(double flops_per_item = 2000.0) {
  MapReduceSpec<int, long long> spec;
  spec.name = "fault-sum";
  spec.cpu_map = [](const InputSlice& s, Emitter<int, long long>& e) {
    long long sums[kKeys] = {};
    for (std::size_t i = s.begin; i < s.end; ++i) {
      sums[i % kKeys] += static_cast<long long>(i);
    }
    for (int k = 0; k < kKeys; ++k) {
      if (sums[k] != 0) e.emit(k, sums[k]);
    }
  };
  spec.combine = [](const long long& a, const long long& b) { return a + b; };
  spec.cpu_flops_per_item = flops_per_item;
  spec.gpu_flops_per_item = flops_per_item;
  spec.ai_cpu = 50.0;
  spec.ai_gpu = 50.0;
  spec.item_bytes = 8.0;
  spec.pair_bytes = 16.0;
  return spec;
}

std::map<int, long long> expected_sums(std::size_t n) {
  std::map<int, long long> out;
  for (std::size_t i = 0; i < n; ++i) {
    out[static_cast<int>(i % kKeys)] += static_cast<long long>(i);
  }
  return out;
}

constexpr std::size_t kItems = 20000;
constexpr int kNodes = 4;

/// One faulted run with everything observable captured for comparison.
struct FaultRun {
  std::map<int, long long> output;
  JobStats stats;
  fault::FaultInjector::Stats injected;
  std::vector<std::string> log;
  std::string trace_json;
};

FaultRun run_with_faults(const std::string& spec_str, std::uint64_t seed,
                         double flops_per_item = 2000.0,
                         const std::string& policy = "static") {
  sim::Simulator simu;
  obs::TraceRecorder rec(simu);
  simu.set_tracer(&rec);
  Cluster cluster(simu, kNodes, NodeConfig{});
  fault::FaultInjector inj(simu, fault::FaultPlan::parse(spec_str), seed);
  auto spec = sum_spec(flops_per_item);
  JobConfig cfg;
  cfg.charge_job_startup = false;  // fault window starts at t=0
  cfg.faults = &inj;
  auto sched = make_policy(policy);
  cfg.policy = sched.get();
  auto res = run_job(cluster, spec, cfg, kItems);
  FaultRun out;
  out.output = std::move(res.output);
  out.stats = res.stats;
  out.injected = inj.stats();
  out.log = inj.log();
  out.trace_json = obs::chrome_trace_string(rec);
  simu.set_tracer(nullptr);
  return out;
}

std::map<int, long long> run_fault_free() {
  sim::Simulator simu;
  Cluster cluster(simu, kNodes, NodeConfig{});
  auto spec = sum_spec();
  JobConfig cfg;
  cfg.charge_job_startup = false;
  auto res = run_job(cluster, spec, cfg, kItems);
  return res.output;
}

// -- (a) determinism --------------------------------------------------------

TEST(FaultInjector, SameSeedGivesByteIdenticalScheduleAndTrace) {
  const std::string spec =
      "link_drop:*:p=0.05; task_error:node1:p=0.1; slow_node:node2:x2";
  auto a = run_with_faults(spec, 7);
  auto b = run_with_faults(spec, 7);
  EXPECT_EQ(a.log, b.log);
  EXPECT_TRUE(a.injected == b.injected);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.output, b.output);
  EXPECT_DOUBLE_EQ(a.stats.elapsed, b.stats.elapsed);
  EXPECT_EQ(a.stats.task_retries, b.stats.task_retries);
  EXPECT_EQ(a.stats.retransmits, b.stats.retransmits);
  // A different seed draws a different probabilistic schedule.
  auto c = run_with_faults(spec, 8);
  EXPECT_NE(a.log, c.log);
  // But the computed result is still exact.
  EXPECT_EQ(a.output, expected_sums(kItems));
  EXPECT_EQ(c.output, expected_sums(kItems));
}

// -- (b) output equality per fault class ------------------------------------

TEST(FaultTolerance, OutputMatchesFaultFreeUnderEachFaultClass) {
  const auto want = run_fault_free();
  ASSERT_EQ(want, expected_sums(kItems));
  for (const char* spec :
       {"gpu_hang:node1:t=0ms", "link_drop:*:p=0.2", "slow_node:node3:x4",
        "task_error:*:p=0.1", "link_delay:*:t=200us:p=0.5",
        "link_dup:*:p=0.2"}) {
    for (const char* policy : {"static", "dynamic", "adaptive"}) {
      auto got = run_with_faults(spec, 3, 2000.0, policy);
      EXPECT_EQ(got.output, want) << "under " << spec << ", " << policy;
    }
  }
}

TEST(FaultTolerance, FaultedRunKeepsItsPinnedTimelineAndLog) {
  // A faulted job runs the same job graph as a fault-free one, its nodes
  // in their faulted form. This faulted run's timeline, retries, injector
  // log and trace are pinned, so a change in any shared piece that moves a
  // fault, a retry or a virtual second shows here. The timeline, counts
  // and log are the deleted tolerant supervisor's; the trace digest was
  // re-pinned when graph spans and sched.decision markers joined it.
  const std::string spec = "link_drop:*:p=0.1; task_error:node1:p=0.1";
  auto got = run_with_faults(spec, 11);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.elapsed, 0.0025537007323688976);
  EXPECT_EQ(got.stats.task_retries, 11u);
  EXPECT_EQ(got.stats.retransmits, 8u);
  ckpt::Writer log;
  for (const std::string& line : got.log) log.str(line);
  EXPECT_EQ(got.log.size(), 20u);
  EXPECT_EQ(ckpt::fnv1a64(log.bytes()), 0x30dbdf6ba3afa936ull);
  EXPECT_EQ(ckpt::fnv1a64(got.trace_json), 0x00d714c2a1401bf4ull);
}

TEST(FaultTolerance, DroppedMessagesAreRetransmitted) {
  auto got = run_with_faults("link_drop:*:p=0.2", 3);
  EXPECT_GT(got.injected.drops, 0u);
  EXPECT_GE(got.stats.retransmits, got.injected.drops);
  EXPECT_EQ(got.output, expected_sums(kItems));
}

TEST(FaultTolerance, GpuHangRetriesOntoTheCpu) {
  auto got = run_with_faults("gpu_hang:node1:t=0ms", 3);
  EXPECT_GT(got.injected.hangs, 0u);
  EXPECT_GT(got.stats.task_retries, 0u);
  EXPECT_EQ(got.stats.blacklisted_nodes, 0);  // hang tolerated in place
  EXPECT_EQ(got.output, expected_sums(kItems));
}

TEST(FaultTolerance, TransientTaskErrorsAreRetried) {
  auto got = run_with_faults("task_error:*:p=0.1", 3);
  EXPECT_GT(got.injected.task_errors, 0u);
  EXPECT_GT(got.stats.task_retries, 0u);
  EXPECT_EQ(got.output, expected_sums(kItems));
}

TEST(FaultTolerance, EmptyPlanOnTolerantPathStaysClean) {
  auto got = run_with_faults("", 1);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.task_retries, 0u);
  EXPECT_EQ(got.stats.retransmits, 0u);
  EXPECT_EQ(got.stats.blacklisted_nodes, 0);
  EXPECT_EQ(got.stats.job_attempts, 1);
  EXPECT_TRUE(got.log.empty());
}

// -- (c) crash recovery -----------------------------------------------------

TEST(FaultTolerance, CrashedNodeIsBlacklistedAndWorkResplitsAcrossSurvivors) {
  const auto want = run_fault_free();
  auto got = run_with_faults("node_crash:node2:t=0", 5);
  EXPECT_EQ(got.output, want);
  EXPECT_EQ(got.stats.blacklisted_nodes, 1);
  EXPECT_EQ(got.stats.job_attempts, 2);
  EXPECT_GT(got.stats.task_retries, 0u);  // the crashed node's hung attempts
  EXPECT_GT(got.stats.elapsed, 0.0);
}

/// The first node_crash line of an injector log ("" when none).
std::string first_crash_line(const std::vector<std::string>& log) {
  for (const std::string& line : log) {
    if (line.find(" node_crash ") != std::string::npos) return line;
  }
  return "";
}

TEST(FaultTolerance, CrashBeforeShuffleSendsIsDiagnosedFromTheStall) {
  // node2 crashes after its last map block and before its shuffle sends:
  // no retry runs out, so nothing announces the failure. The attempt
  // stalls, and the post-mortem blames node2 because no stalled peer
  // heard from it.
  auto got = run_with_faults("node_crash:node2:t=1540us", 5);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.task_retries, 0u);
  EXPECT_EQ(got.stats.blacklisted_nodes, 1);
  EXPECT_EQ(got.stats.job_attempts, 2);
  EXPECT_EQ(first_crash_line(got.log),
            "t=0.00154488586 node_crash node0-node2 tag100");
}

TEST(FaultTolerance, CrashBeforeGatherSendIsDiagnosedFromTheStall) {
  // node2 crashes after its reduce and before its gather send: it counts
  // as finished, and the post-mortem blames it because the stalled master
  // still awaits its message.
  auto got = run_with_faults("node_crash:node2:t=1630us", 5);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.task_retries, 0u);
  EXPECT_EQ(got.stats.blacklisted_nodes, 1);
  EXPECT_EQ(got.stats.job_attempts, 2);
  EXPECT_EQ(first_crash_line(got.log),
            "t=0.00163795673 node_crash node2-node0 tag200");
}

TEST(FaultTolerance, TwoCrashedNodesStillRecoverable) {
  auto got = run_with_faults("node_crash:node1:t=0; node_crash:node3:t=0", 5);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.blacklisted_nodes, 2);
  EXPECT_GE(got.stats.job_attempts, 2);
}

// -- (d) straggler speculation ----------------------------------------------

TEST(FaultTolerance, StragglerSpeculationWinsAndDuplicatesAreDiscarded) {
  // node0's CPU runs 6x slower — below the 8x timeout factor. The fast
  // GPU blocks establish the duration median; the slowed CPU blocks exceed
  // kStragglerFactor x median, the watchdog launches backups on the GPU,
  // the backups win, and the late CPU originals are discarded as double
  // completions.
  auto got = run_with_faults("slow_node:node0:x6:cpu", 11,
                             /*flops_per_item=*/20000.0);
  EXPECT_GT(got.injected.slowdowns, 0u);
  EXPECT_GE(got.stats.speculations, 1u);
  EXPECT_GE(got.stats.speculative_wins, 1u);
  EXPECT_GE(got.stats.double_completions, 1u);
  // First-result-wins must not change the reduced values.
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.blacklisted_nodes, 0);
}

// -- (e) fault-spec grammar fuzzing -----------------------------------------

std::string format_exact17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds a random spec clause that the grammar documents as valid.
std::string random_valid_clause(Rng& rng) {
  static const char* kDeviceKinds[] = {"gpu_hang", "node_crash", "slow_node",
                                       "task_error"};
  static const char* kLinkKinds[] = {"link_drop", "link_delay", "link_dup"};
  static const char* kSuffixes[] = {"", "s", "ms", "us", "ns"};

  const bool link = rng.uniform() < 0.4;
  std::string kind = link ? kLinkKinds[rng.uniform_index(3)]
                          : kDeviceKinds[rng.uniform_index(4)];
  std::string clause = kind + ":";
  auto node = [&] {
    return rng.uniform() < 0.2
               ? std::string("*")
               : "node" + std::to_string(rng.uniform_index(64));
  };
  if (link) {
    clause += rng.uniform() < 0.25 ? "*" : node() + "-" + node();
  } else {
    clause += node();
  }
  if (kind == "slow_node") {
    clause += ":x" + format_exact17(rng.uniform(1.5, 16.0));
  }
  if (kind == "link_delay") {
    clause += ":t=" + format_exact17(rng.uniform(1e-6, 1e-2)) + "s";
  } else if (rng.uniform() < 0.5) {
    clause += ":t=" + format_exact17(rng.uniform(0.0, 10.0)) +
              kSuffixes[rng.uniform_index(5)];
  }
  if (rng.uniform() < 0.5) {
    clause += ":p=" + format_exact17(rng.uniform());
  }
  if (!link && rng.uniform() < 0.3) {
    clause += rng.uniform() < 0.5 ? ":cpu" : ":gpu";
  }
  return clause;
}

TEST(FaultPlanFuzz, GeneratedValidSpecsParseAndRoundTripThroughToSpec) {
  Rng rng(0xfa11);
  for (int i = 0; i < 100; ++i) {
    std::string spec = random_valid_clause(rng);
    const std::size_t extra = rng.uniform_index(3);
    for (std::size_t c = 0; c < extra; ++c) {
      // The clause draws from rng before the separator does.
      const std::string clause = random_valid_clause(rng);
      spec += rng.uniform() < 0.5 ? ';' : ',';
      spec += clause;
    }
    SCOPED_TRACE(spec);
    fault::FaultPlan plan;
    ASSERT_NO_THROW(plan = fault::FaultPlan::parse(spec));
    ASSERT_FALSE(plan.empty());
    // The canonical spelling reparses to the same clauses, doubles exact.
    const std::string canonical = plan.to_spec();
    const fault::FaultPlan back = fault::FaultPlan::parse(canonical);
    EXPECT_EQ(back.clauses, plan.clauses);
    EXPECT_EQ(back.to_spec(), canonical);
  }
}

TEST(FaultPlanFuzz, MutatedSpecsEitherParseOrThrowPrsErrorsOnly) {
  Rng rng(0xbadf00d);
  std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789:;,.*-=_ xXtTpPeE+\t\n";
  charset.push_back('\0');   // embedded NUL
  charset.push_back('\x7f');
  charset.push_back('\xff');
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    std::string spec = random_valid_clause(rng);
    const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
    for (int m = 0; m < mutations; ++m) {
      if (spec.empty()) break;
      const std::size_t pos = rng.uniform_index(spec.size());
      const char c = charset[rng.uniform_index(charset.size())];
      switch (rng.uniform_index(3)) {
        case 0:
          spec[pos] = c;
          break;
        case 1:
          spec.insert(pos, 1, c);
          break;
        default:
          spec.erase(pos, 1);
          break;
      }
    }
    SCOPED_TRACE(spec);
    try {
      fault::FaultPlan::parse(spec);
      ++parsed;
    } catch (const prs::Error&) {
      ++rejected;  // the only acceptable failure mode
    }
    // Anything else (std::out_of_range from stoi/stod, bad_alloc from a
    // bogus length, segfault) escapes and fails the test.
  }
  // The mutator must actually exercise both sides of the parser.
  EXPECT_GT(parsed, 5);
  EXPECT_GT(rejected, 5);
}

TEST(FaultPlanFuzz, OverflowingNumbersAreRejectedAsInvalidArgument) {
  EXPECT_THROW(
      fault::FaultPlan::parse("node_crash:node99999999999999999999"),
      InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("slow_node:node0:x1e999"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("gpu_hang:node1:t=1e999s"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("task_error:node1:p=1e999"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("link_delay:*:t=1e-999999s"),
               InvalidArgument);
}

TEST(FaultPlanFuzz, ToSpecOfParsedSpecIsAFixedPoint) {
  const char* specs[] = {
      "gpu_hang:node1:t=2ms; link_drop:node0-node2:p=0.01,"
      "slow_node:node3:x4:gpu; node_crash:*:t=1500us",
      "link_delay:*:t=1ms:p=0.1; link_dup:node0-*:p=0.02",
      "task_error:node1:p=0.05",
  };
  for (const char* s : specs) {
    const auto plan = fault::FaultPlan::parse(s);
    const std::string canonical = plan.to_spec();
    const auto back = fault::FaultPlan::parse(canonical);
    EXPECT_EQ(back.clauses, plan.clauses) << s;
    EXPECT_EQ(back.to_spec(), canonical) << s;
  }
}

}  // namespace
}  // namespace prs::core
