// Command-line option parsing for the prs_run driver.
//
// Deliberately dependency-free: --key=value / --flag syntax. Job flags are
// svc::JobSpec's SUBMIT keys and go through its parser and validator; the
// process and client settings are the other Options fields. Exposed as a
// header so the parser is unit-testable (tests/cli_test.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "svc/job_spec.hpp"

namespace prs::tools {

struct Options {
  // The job: every --key[=value] not listed below sets the JobSpec field of
  // that SUBMIT key, with '-' for '_' (--cpu-fraction=0.3 is
  // cpu_fraction=0.3). Bare --functional/--gpu-only/--cpu-only/--resume
  // mean =1; --gpu-mem is gpu_mem_bytes, and --lines, --signals and
  // --components are the spec's aliases.
  svc::JobSpec job;

  std::string graph_dump;    // --graph-dump=FILE: Graphviz DOT of the job
  int repeat = 1;            // run the job N times (counters reset between)
  int host_threads = 0;      // real host threads for map kernels; 0 = auto
                             // (PRS_HOST_THREADS / hardware_concurrency)
  std::string simd;          // --simd=scalar|avx2|avx512|auto; empty =
                             // $PRS_SIMD, else auto-detect
  bool simd_calibrate = false;  // --simd-calibrate: measure the host vector
                                // speedup and feed it into the Eq (8) split
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

  // Client resilience (see DESIGN.md "Durability & recovery").
  int server_retries = 0;      // --server-retries=N: reconnect/backoff budget
  int retry_base_ms = 50;      // --retry-base-ms=MS: first backoff sleep
  int server_timeout_ms = 0;   // --server-timeout-ms=MS: per-request deadline
  std::uint64_t retry_seed = 1;  // --retry-seed=S: backoff jitter stream
  std::string dedup;           // --dedup=KEY: idempotent submit key
};

/// Parses argv into `out`. Returns false (and sets `error`) on unknown
/// options, malformed values, or inconsistent combinations; the job passes
/// JobSpec::validate(), the check prs_serve admits by. Unknown flags are
/// always rejected with a message naming the flag — even when --help or
/// --list appears earlier on the command line.
bool parse_options(int argc, char** argv, Options& out, std::string& error);

/// Throwing flavour: returns the parsed options or throws
/// prs::InvalidArgument with the same message (naming the offending flag).
Options parse_options_or_throw(int argc, char** argv);

/// The --help text.
std::string usage();

}  // namespace prs::tools
