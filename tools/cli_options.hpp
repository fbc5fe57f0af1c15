// Command-line option parsing for the prs_run driver.
//
// Deliberately dependency-free: --key=value / --flag syntax, validated
// against the option table below. Exposed as a header so the parser is
// unit-testable (tests/cli_test.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "core/cluster.hpp"
#include "core/job.hpp"
#include "simdev/device_spec.hpp"
#include "svc/job_spec.hpp"

namespace prs::tools {

struct Options {
  std::string app = "cmeans";
  std::string testbed = "delta";     // delta | bigred2 | phi
  std::string scheduling = "static"; // static | dynamic (legacy spelling)
  std::string policy;                // static | dynamic | adaptive
  int nodes = 4;
  int gpus = 1;
  std::size_t points = 200000;
  std::size_t dims = 100;
  int clusters = 10;
  int iterations = 10;
  std::size_t rows = 35000;
  std::size_t cols = 10000;
  bool functional = false;   // default: modeled (paper-scale safe)
  bool gpu_only = false;
  bool cpu_only = false;
  double cpu_fraction = -1.0;
  std::uint64_t seed = 42;
  std::string engine;        // stages | graph; empty = stages, unless
                             // --graph-dump implies graph
  int pipeline_depth = 1;    // graph engine: iterations in flight
  std::string graph_dump;    // --graph-dump=FILE: Graphviz DOT of the job
  int repeat = 1;            // run the job N times (counters reset between)
  int host_threads = 0;      // real host threads for map kernels; 0 = auto
                             // (PRS_HOST_THREADS / hardware_concurrency)
  std::string simd;          // --simd=scalar|avx2|avx512|auto; empty =
                             // $PRS_SIMD, else auto-detect
  bool simd_calibrate = false;  // --simd-calibrate: measure the host vector
                                // speedup and feed it into the Eq (8) split
  std::string fault_spec;    // --fault-spec=...: fault clauses (fault_plan.hpp)
  std::uint64_t fault_seed = 1;  // seed of the injector's RNG streams
  int checkpoint_every = 0;  // snapshot interval in iterations; 0 = off
  std::string checkpoint_dir;  // --checkpoint-dir=DIR: snapshot directory
  bool resume = false;       // resume from the latest snapshot in the dir
  std::string trace_path;    // --trace=FILE: Chrome trace-event JSON
  std::string metrics_path;  // --metrics=FILE: counters/histograms dump
  bool show_help = false;
  bool show_list = false;

  // Client mode against a running prs_serve (see DESIGN.md "Service
  // layer"). --server selects the socket; exactly one action below.
  std::string server_socket;   // --server=PATH
  std::string tenant = "default";  // --tenant=NAME (submit identity)
  bool submit = false;         // --submit: send job, wait, print results
  int job_status = -1;         // --job-status=ID
  int wait_job = -1;           // --wait-job=ID
  int cancel_job = -1;         // --cancel-job=ID
  bool server_stats = false;   // --server-stats: dump svc.* metrics JSON
  bool drain_server = false;   // --drain-server
  bool shutdown_server = false;  // --shutdown-server
  std::uint64_t gpu_mem_bytes = 0;  // --gpu-mem=BYTES per-vGPU request

  // Client resilience (see DESIGN.md "Durability & recovery").
  int server_retries = 0;      // --server-retries=N: reconnect/backoff budget
  int retry_base_ms = 50;      // --retry-base-ms=MS: first backoff sleep
  int server_timeout_ms = 0;   // --server-timeout-ms=MS: per-request deadline
  std::uint64_t retry_seed = 1;  // --retry-seed=S: backoff jitter stream
  std::string dedup;           // --dedup=KEY: idempotent submit key

  /// Node hardware from the --testbed/--gpus flags.
  core::NodeConfig node_config() const {
    core::NodeConfig cfg;
    if (testbed == "bigred2") {
      cfg.cpu = simdev::bigred2_cpu();
      cfg.gpu = simdev::bigred2_k20();
    } else if (testbed == "phi") {
      cfg.gpu = simdev::xeon_phi_5110p();
    }
    cfg.gpus_per_node = gpus;
    return cfg;
  }

  /// Effective level-2 policy name: --policy wins over legacy --scheduling.
  std::string policy_name() const {
    return policy.empty() ? scheduling : policy;
  }

  /// Effective engine name: --graph-dump implies the graph engine when
  /// --engine is not given explicitly.
  std::string engine_name() const {
    if (!engine.empty()) return engine;
    return graph_dump.empty() ? "stages" : "graph";
  }

  /// Job configuration from the mode/backend/scheduling flags. The caller
  /// owns the policy instance (core::make_policy(policy_name())) and sets
  /// JobConfig::policy so it persists across --repeat runs.
  core::JobConfig job_config() const {
    core::JobConfig cfg;
    cfg.mode = functional ? core::ExecutionMode::kFunctional
                          : core::ExecutionMode::kModeled;
    cfg.scheduling = policy_name() == "dynamic"
                         ? core::SchedulingMode::kDynamic
                         : core::SchedulingMode::kStatic;
    cfg.use_cpu = !gpu_only;
    cfg.use_gpu = !cpu_only;
    cfg.cpu_fraction_override = cpu_fraction;
    cfg.engine = engine_name() == "graph" ? core::ExecEngine::kGraph
                                          : core::ExecEngine::kStages;
    cfg.pipeline_depth = pipeline_depth;
    cfg.graph_dump_path = graph_dump;
    return cfg;
  }
};

/// Parses argv into `out`. Returns false (and sets `error`) on unknown
/// options, malformed values, or inconsistent combinations. Unknown flags
/// are always rejected with a message naming the flag — even when --help
/// or --list appears earlier on the command line.
bool parse_options(int argc, char** argv, Options& out, std::string& error);

/// Throwing flavour: returns the parsed options or throws
/// prs::InvalidArgument with the same message (naming the offending flag).
Options parse_options_or_throw(int argc, char** argv);

/// The submittable JobSpec equivalent of single-shot options (the fields
/// prs_run --submit sends over the wire).
svc::JobSpec to_job_spec(const Options& opt);

/// The --help text.
std::string usage();

}  // namespace prs::tools
