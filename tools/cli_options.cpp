#include "tools/cli_options.hpp"

#include <charconv>
#include <cstring>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"

namespace prs::tools {
namespace {

bool parse_u64(const std::string& v, std::uint64_t& out) {
  const char* b = v.data();
  const char* e = b + v.size();
  auto [p, ec] = std::from_chars(b, e, out);
  return ec == std::errc() && p == e;
}

bool parse_int(const std::string& v, int& out) {
  const char* b = v.data();
  const char* e = b + v.size();
  auto [p, ec] = std::from_chars(b, e, out);
  return ec == std::errc() && p == e;
}

bool parse_double(const std::string& v, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(v, &pos);
    return pos == v.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

std::string usage() {
  return R"(prs_run — run an SPMD application on a simulated CPU+GPU cluster

usage: prs_run [options]
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
  --pipeline-depth=N  pipelining depth (default 1; static and adaptive
                      policies): N>1 copies each GPU block back as its
                      kernel ends, and the stencil runs row blocks up to
                      N sweeps ahead; each iteration is one job, and
                      numeric results are byte-identical
  --graph-dump=FILE   write the job's task graph as Graphviz DOT
                      (iterative jobs overwrite FILE per iteration)
  --functional        compute real results (default: modeled virtual time)
  --gpu-only          disable the CPU backend
  --cpu-only          disable the GPU backend
  --seed=S            RNG seed (default 42)
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

  --fault-spec=SPEC   inject faults and run fault-tolerant, e.g.
                      "gpu_hang:node1:t=2ms", "link_drop:*:p=0.01",
                      "slow_node:node3:x4", "node_crash:node2:t=5ms";
                      ';'-separated clauses compose (see DESIGN.md)
  --fault-seed=S      seed of the fault injector's RNG streams (default 1)
  --checkpoint-every=N  snapshot the iterative driver's state every N
                      iterations into --checkpoint-dir (functional
                      cmeans/kmeans/gmm only); a node_crash then halts
                      with the latest snapshot preserved on disk
  --checkpoint-dir=DIR  directory for checkpoint snapshots
  --resume            resume from the latest snapshot in --checkpoint-dir;
                      the run must use the same input flags and seeds
  --trace=FILE        write a Chrome trace-event JSON timeline (open in
                      chrome://tracing or https://ui.perfetto.dev)
  --metrics=FILE      write runtime metrics (JSON if FILE ends in .json,
                      CSV otherwise)

client mode (against a running prs_serve; see DESIGN.md "Service layer"):
  --server=PATH       the prs_serve unix socket; required by all actions
  --tenant=NAME       tenant identity for --submit (default "default")
  --submit            submit this job to the server, wait for it and print
                      its result lines (digests match a single-shot run)
  --gpu-mem=BYTES     per-vGPU device-memory quota to request with --submit
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
    if (arg == "--functional") {
      out.functional = true;
      continue;
    }
    if (arg == "--gpu-only") {
      out.gpu_only = true;
      continue;
    }
    if (arg == "--cpu-only") {
      out.cpu_only = true;
      continue;
    }
    if (arg == "--resume") {
      out.resume = true;
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
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      error = "unrecognized argument: " + arg + " (see --help)";
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    bool ok = true;
    std::uint64_t u = 0;
    if (key == "app") {
      out.app = val;
    } else if (key == "testbed") {
      out.testbed = val;
      ok = val == "delta" || val == "bigred2" || val == "phi";
    } else if (key == "policy") {
      out.policy = val;
      ok = val == "static" || val == "dynamic" || val == "adaptive";
    } else if (key == "nodes") {
      ok = parse_int(val, out.nodes) && out.nodes >= 1;
    } else if (key == "gpus") {
      ok = parse_int(val, out.gpus) && out.gpus >= 0;
    } else if (key == "points" || key == "lines" || key == "signals") {
      ok = parse_u64(val, u) && u > 0;
      out.points = u;
    } else if (key == "dims") {
      ok = parse_u64(val, u) && u > 0;
      out.dims = u;
    } else if (key == "clusters" || key == "components") {
      ok = parse_int(val, out.clusters) && out.clusters >= 1;
    } else if (key == "iterations") {
      ok = parse_int(val, out.iterations) && out.iterations >= 1;
    } else if (key == "rows") {
      ok = parse_u64(val, u) && u > 0;
      out.rows = u;
    } else if (key == "cols") {
      ok = parse_u64(val, u) && u > 0;
      out.cols = u;
    } else if (key == "cpu-fraction") {
      ok = parse_double(val, out.cpu_fraction) && out.cpu_fraction >= 0.0 &&
           out.cpu_fraction <= 1.0;
    } else if (key == "seed") {
      ok = parse_u64(val, out.seed);
    } else if (key == "pipeline-depth") {
      ok = parse_int(val, out.pipeline_depth) && out.pipeline_depth >= 1 &&
           out.pipeline_depth <= 64;
    } else if (key == "graph-dump") {
      out.graph_dump = val;
      ok = !val.empty();
    } else if (key == "fault-spec") {
      out.fault_spec = val;
      ok = !val.empty();
    } else if (key == "fault-seed") {
      ok = parse_u64(val, out.fault_seed);
    } else if (key == "checkpoint-every") {
      ok = parse_int(val, out.checkpoint_every) && out.checkpoint_every >= 1;
    } else if (key == "checkpoint-dir") {
      out.checkpoint_dir = val;
      ok = !val.empty();
    } else if (key == "repeat") {
      ok = parse_int(val, out.repeat) && out.repeat >= 1;
    } else if (key == "simd") {
      out.simd = val;
      ok = val == "scalar" || val == "avx2" || val == "avx512" ||
           val == "auto";
    } else if (key == "host-threads") {
      ok = parse_int(val, out.host_threads) && out.host_threads >= 0 &&
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
      ok = parse_int(val, out.job_status) && out.job_status >= 1;
    } else if (key == "wait-job") {
      ok = parse_int(val, out.wait_job) && out.wait_job >= 1;
    } else if (key == "cancel-job") {
      ok = parse_int(val, out.cancel_job) && out.cancel_job >= 1;
    } else if (key == "gpu-mem") {
      ok = parse_u64(val, out.gpu_mem_bytes) && out.gpu_mem_bytes > 0;
    } else if (key == "server-retries") {
      ok = parse_int(val, out.server_retries) && out.server_retries >= 0;
    } else if (key == "retry-base-ms") {
      ok = parse_int(val, out.retry_base_ms) && out.retry_base_ms >= 1;
    } else if (key == "server-timeout-ms") {
      ok = parse_int(val, out.server_timeout_ms) && out.server_timeout_ms >= 0;
    } else if (key == "retry-seed") {
      ok = parse_u64(val, out.retry_seed);
    } else if (key == "dedup") {
      out.dedup = val;
      ok = !val.empty() && val.find(' ') == std::string::npos;
    } else {
      error = "unknown option: --" + key + " (see --help)";
      return false;
    }
    if (!ok) {
      error = "invalid value for --" + key + ": " + val;
      return false;
    }
  }
  if (out.gpu_only && out.cpu_only) {
    error = "--gpu-only and --cpu-only are mutually exclusive";
    return false;
  }
  if (out.gpu_only && out.gpus == 0) {
    error = "--gpu-only requires --gpus >= 1";
    return false;
  }
  if ((out.checkpoint_every > 0 || out.resume) && out.checkpoint_dir.empty()) {
    error = "--checkpoint-every/--resume require --checkpoint-dir";
    return false;
  }
  if (!out.checkpoint_dir.empty()) {
    if (out.app != "cmeans" && out.app != "kmeans" && out.app != "gmm" &&
        out.app != "stencil") {
      error = "checkpointing supports the iterative apps only "
              "(--app=cmeans|kmeans|gmm|stencil)";
      return false;
    }
    if (!out.functional) {
      error = "checkpointing requires --functional (snapshots carry real "
              "application state)";
      return false;
    }
    if (out.repeat != 1) {
      error = "--checkpoint-dir and --repeat are mutually exclusive";
      return false;
    }
  }
  if (out.pipeline_depth > 1 && out.policy == "dynamic") {
    error = "--pipeline-depth > 1 requires a static-dispatch policy "
            "(--policy=static|adaptive), not --policy=dynamic";
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

core::NodeConfig Options::node_config() const {
  return to_job_spec(*this).node_config();
}

core::JobConfig Options::job_config() const {
  core::JobConfig cfg = to_job_spec(*this).job_config();
  cfg.graph_dump_path = graph_dump;
  return cfg;
}

svc::JobSpec to_job_spec(const Options& o) {
  svc::JobSpec s;
  s.app = o.app;
  s.testbed = o.testbed;
  s.policy = o.policy;
  s.nodes = o.nodes;
  s.gpus = o.gpus;
  s.points = o.points;
  s.dims = o.dims;
  s.clusters = o.clusters;
  s.iterations = o.iterations;
  s.rows = o.rows;
  s.cols = o.cols;
  s.functional = o.functional;
  s.gpu_only = o.gpu_only;
  s.cpu_only = o.cpu_only;
  s.cpu_fraction = o.cpu_fraction;
  s.seed = o.seed;
  s.pipeline_depth = o.pipeline_depth;
  s.fault_spec = o.fault_spec;
  s.fault_seed = o.fault_seed;
  s.checkpoint_every = o.checkpoint_every;
  s.checkpoint_dir = o.checkpoint_dir;
  s.resume = o.resume;
  s.gpu_mem_bytes = o.gpu_mem_bytes;
  return s;
}

}  // namespace prs::tools
