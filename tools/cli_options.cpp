#include "tools/cli_options.hpp"

#include <type_traits>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"

namespace prs::tools {
namespace {

/// The JobSpec key a prs_run flag names: the flag with '_' for '-', and
/// gpu_mem_bytes for --gpu-mem. Empty for a spelling prs_run does not take
/// (the wire key itself, --pipeline_depth or --gpu-mem-bytes).
std::string job_key(const std::string& flag) {
  if (flag.find('_') != std::string::npos || flag == "gpu-mem-bytes") {
    return "";
  }
  if (flag == "gpu-mem") return "gpu_mem_bytes";
  std::string key = flag;
  for (char& c : key) {
    if (c == '-') c = '_';
  }
  return key;
}

/// Whether `key` is a bool JobSpec field: those are bare prs_run flags.
bool is_bool_job_key(const std::string& key) {
  bool found = false;
  svc::JobSpec spec;
  svc::visit_job_spec_fields(spec, [&](const char* name, const auto& f) {
    if constexpr (std::is_same_v<std::decay_t<decltype(f)>, bool>) {
      found = found || key == name;
    }
  });
  return found;
}

}  // namespace

std::string usage() {
  return R"(prs_run — run an SPMD application on a simulated CPU+GPU cluster

usage: prs_run [options]

job flags (the SUBMIT keys of prs_serve's protocol, '-' for '_'; the same
parser and validator serve both):
  --app=NAME          cmeans | kmeans | gmm | gemv | dgemm | fft |
                      wordcount | stencil
  --testbed=NAME      delta (default) | bigred2 | phi
  --nodes=N           fat nodes in the cluster (default 4)
  --gpus=N            GPU cards per node (default 1)
  --points=N          input items / points / signals / lines
  --dims=D            point dimensionality (clustering apps)
  --clusters=M        clusters / mixture components
  --iterations=I      max iterations (iterative apps)
  --rows=M --cols=N   GEMV/DGEMM shape (--dims is DGEMM's K and the
                      stencil grid's rows); --cols is also the FFT
                      signal size
  --policy=NAME       level-2 scheduling policy: static (default, Eq (8))
                      | dynamic (block polling) | adaptive (analytic p
                      refined per iteration from observed busy times)
  --cpu-fraction=P    override the analytic CPU share p in [0,1]
                      (negative, the default: the analytic Eq (8) split)
  --pipeline-depth=N  pipelining depth (default 1; static and adaptive
                      policies): N>1 copies each GPU block back as its
                      kernel ends, and the stencil runs row blocks up to
                      N sweeps ahead; each iteration is one job, and
                      numeric results are byte-identical
  --functional        compute real results (default: modeled virtual time)
  --gpu-only          disable the CPU backend
  --cpu-only          disable the GPU backend
  --seed=S            RNG seed (default 42)
  --fault-spec=SPEC   inject faults and run fault-tolerant, e.g.
                      "gpu_hang:node1:t=2ms", "link_drop:*:p=0.01",
                      "slow_node:node3:x4", "node_crash:node2:t=5ms";
                      ';'-separated clauses compose (see DESIGN.md)
  --fault-seed=S      seed of the fault injector's RNG streams (default 1)
  --checkpoint-dir=DIR  snapshot the iterative driver's state into DIR
                      (functional cmeans/kmeans/gmm/stencil only); a
                      node_crash then halts with the latest snapshot
                      preserved on disk
  --checkpoint-every=N  snapshot interval in iterations (default 1)
  --resume            resume from the latest snapshot in --checkpoint-dir;
                      the run must use the same input flags and seeds
  --gpu-mem=BYTES     per-vGPU device-memory quota under prs_serve
                      (default 0: the whole card)

process flags:
  --repeat=N          run the job N times, resetting counters in between
  --host-threads=N    real host threads driving the numeric map kernels
                      (default 0 = $PRS_HOST_THREADS, else all cores);
                      results are byte-identical for any N
  --simd=LEVEL        host kernel instruction set: scalar | avx2 | avx512 |
                      auto (default; also $PRS_SIMD). Kernels are
                      byte-identical across levels; requesting an
                      unsupported level fails loudly
  --simd-calibrate    micro-benchmark the host vector speedup and scale the
                      roofline CPU rate Fc in the Eq (8) split by it
  --graph-dump=FILE   write the job's task graph as Graphviz DOT
                      (iterative jobs overwrite FILE per iteration)
  --trace=FILE        write a Chrome trace-event JSON timeline (open in
                      chrome://tracing or https://ui.perfetto.dev)
  --metrics=FILE      write runtime metrics (JSON if FILE ends in .json,
                      CSV otherwise)

client mode (against a running prs_serve; see DESIGN.md "Service layer"):
  --server=PATH       the prs_serve unix socket; required by all actions
  --tenant=NAME       tenant identity for --submit (default "default")
  --submit            submit this job to the server, wait for it and print
                      its result lines (digests match a single-shot run)
  --job-status=ID     print one job's status line
  --wait-job=ID       block until a job is terminal, print its results
  --cancel-job=ID     cancel a queued or running job
  --server-stats      print the server's svc.* metrics as JSON
  --drain-server      stop admissions; running jobs finish
  --shutdown-server   stop the server
  --server-retries=N  reconnect/backoff budget for client requests: ride
                      out a server restart or RETRY-AFTER shedding with up
                      to N retries (default 0 = fail fast)
  --retry-base-ms=MS  first backoff sleep; doubles per retry with seeded
                      jitter, capped at 2000ms (default 50)
  --retry-seed=S      jitter stream seed (deterministic schedule; default 1)
  --server-timeout-ms=MS  per-request response deadline; expiry reconnects
                      and retries (0 = wait forever, the default)
  --dedup=KEY         idempotent submission: a retried SUBMIT with the same
                      tenant+KEY returns the existing job id instead of
                      admitting a duplicate (recommended with
                      --server-retries)

  --list              list apps and testbeds
  --help              this text
)";
}

bool parse_options(int argc, char** argv, Options& out, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // --help/--list do NOT stop parsing: every later flag is still
    // validated, so a typo after them fails loudly instead of being
    // silently ignored.
    if (arg == "--help" || arg == "-h") {
      out.show_help = true;
      continue;
    }
    if (arg == "--list") {
      out.show_list = true;
      continue;
    }
    if (arg == "--simd-calibrate") {
      out.simd_calibrate = true;
      continue;
    }
    if (arg == "--submit") {
      out.submit = true;
      continue;
    }
    if (arg == "--server-stats") {
      out.server_stats = true;
      continue;
    }
    if (arg == "--drain-server") {
      out.drain_server = true;
      continue;
    }
    if (arg == "--shutdown-server") {
      out.shutdown_server = true;
      continue;
    }
    const auto eq = arg.find('=');
    const bool dashed = arg.rfind("--", 0) == 0;
    const std::string key = dashed ? arg.substr(2, eq - 2) : "";
    if (!dashed ||
        (eq == std::string::npos && !is_bool_job_key(job_key(key)))) {
      error = "unrecognized argument: " + arg + " (see --help)";
      return false;
    }
    const std::string val = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    bool ok = true;
    if (key == "graph-dump") {
      out.graph_dump = val;
      ok = !val.empty();
    } else if (key == "repeat") {
      ok = svc::parse_wire_value(val, out.repeat) && out.repeat >= 1;
    } else if (key == "simd") {
      out.simd = val;
      ok = val == "scalar" || val == "avx2" || val == "avx512" ||
           val == "auto";
    } else if (key == "host-threads") {
      ok = svc::parse_wire_value(val, out.host_threads) &&
           out.host_threads >= 0 &&
           out.host_threads <= exec::ThreadPool::kMaxThreads;
    } else if (key == "trace") {
      out.trace_path = val;
      ok = !val.empty();
    } else if (key == "metrics") {
      out.metrics_path = val;
      ok = !val.empty();
    } else if (key == "server") {
      out.server_socket = val;
      ok = !val.empty();
    } else if (key == "tenant") {
      out.tenant = val;
      ok = !val.empty();
    } else if (key == "job-status") {
      ok = svc::parse_wire_value(val, out.job_status) && out.job_status >= 1;
    } else if (key == "wait-job") {
      ok = svc::parse_wire_value(val, out.wait_job) && out.wait_job >= 1;
    } else if (key == "cancel-job") {
      ok = svc::parse_wire_value(val, out.cancel_job) && out.cancel_job >= 1;
    } else if (key == "server-retries") {
      ok = svc::parse_wire_value(val, out.server_retries) &&
           out.server_retries >= 0;
    } else if (key == "retry-base-ms") {
      ok = svc::parse_wire_value(val, out.retry_base_ms) &&
           out.retry_base_ms >= 1;
    } else if (key == "server-timeout-ms") {
      ok = svc::parse_wire_value(val, out.server_timeout_ms) &&
           out.server_timeout_ms >= 0;
    } else if (key == "retry-seed") {
      ok = svc::parse_wire_value(val, out.retry_seed);
    } else if (key == "dedup") {
      out.dedup = val;
      ok = !val.empty() && val.find(' ') == std::string::npos;
    } else {
      const svc::FieldParse parsed =
          svc::apply_job_spec_field(out.job, job_key(key), val);
      if (parsed == svc::FieldParse::kUnknownKey) {
        error = "unknown option: --" + key + " (see --help)";
        return false;
      }
      ok = parsed == svc::FieldParse::kOk;
    }
    if (!ok) {
      error = "invalid value for --" + key + ": " + val;
      return false;
    }
  }
  try {
    out.job.validate();
  } catch (const InvalidArgument& e) {
    error = e.what();
    return false;
  }
  if (!out.job.checkpoint_dir.empty() && out.repeat != 1) {
    error = "--checkpoint-dir and --repeat are mutually exclusive";
    return false;
  }
  const int client_actions = (out.submit ? 1 : 0) +
                             (out.job_status >= 0 ? 1 : 0) +
                             (out.wait_job >= 0 ? 1 : 0) +
                             (out.cancel_job >= 0 ? 1 : 0) +
                             (out.server_stats ? 1 : 0) +
                             (out.drain_server ? 1 : 0) +
                             (out.shutdown_server ? 1 : 0);
  if (client_actions > 1) {
    error = "client actions (--submit/--job-status/--wait-job/--cancel-job/"
            "--server-stats/--drain-server/--shutdown-server) are mutually "
            "exclusive";
    return false;
  }
  if (client_actions == 1 && out.server_socket.empty()) {
    error = "client actions require --server=PATH (the prs_serve socket)";
    return false;
  }
  if (client_actions == 0 && !out.server_socket.empty()) {
    error = "--server requires a client action (--submit/--job-status/"
            "--wait-job/--cancel-job/--server-stats/--drain-server/"
            "--shutdown-server)";
    return false;
  }
  if (out.submit && out.repeat != 1) {
    error = "--submit and --repeat are mutually exclusive";
    return false;
  }
  if (!out.dedup.empty() && !out.submit) {
    error = "--dedup only applies to --submit (it is the idempotent "
            "submission key)";
    return false;
  }
  if ((out.server_retries > 0 || out.server_timeout_ms > 0) &&
      out.server_socket.empty()) {
    error = "--server-retries/--server-timeout-ms require client mode "
            "(--server=PATH)";
    return false;
  }
  if (out.submit && (!out.trace_path.empty() || !out.metrics_path.empty())) {
    error = "--trace/--metrics are not supported in client mode (the trace "
            "lives in the server; see prs_serve --trace)";
    return false;
  }
  if (out.submit && !out.graph_dump.empty()) {
    error = "--graph-dump is not supported in client mode (the graph lives "
            "in the server)";
    return false;
  }
  if (out.submit && (!out.simd.empty() || out.simd_calibrate)) {
    error = "--simd/--simd-calibrate are not supported in client mode "
            "(kernels run in the server process)";
    return false;
  }
  return true;
}

Options parse_options_or_throw(int argc, char** argv) {
  Options out;
  std::string error;
  if (!parse_options(argc, argv, out, error)) {
    throw InvalidArgument(error);
  }
  return out;
}

}  // namespace prs::tools
