// prs_run — command-line driver for the PRS runtime.
//
// Runs any built-in application on a configurable simulated cluster and
// prints results plus the runtime's scheduling/utilization statistics.
//
//   prs_run --app=cmeans --nodes=4 --points=200000 --dims=100 --clusters=10
//   prs_run --app=gemv --rows=35000 --cols=10000 --gpu-only
//   prs_run --app=wordcount --lines=20000 --functional
//   prs_run --app=gmm --testbed=bigred2 --gpus=1 --policy=dynamic
//   prs_run --app=cmeans --policy=adaptive --repeat=3
//   prs_run --list
//
// Modeled mode (default for big inputs) charges paper-scale virtual time
// without allocating the data; functional mode computes real results.
//
// With --server=PATH the binary turns into a thin client for a running
// prs_serve daemon: --submit ships the same job over the line protocol and
// prints the very same result lines (the job executes through the shared
// svc::run_job_spec dispatch, so digests are byte-identical).
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "ckpt/checkpoint.hpp"
#include "exec/thread_pool.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/pool_metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "svc/client.hpp"
#include "svc/launcher.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"
#include "svc/stats_io.hpp"
#include "tools/cli_options.hpp"

namespace {

using namespace prs;

void print_fault_summary(const fault::FaultInjector& inj,
                         const core::JobStats& s) {
  const auto& st = inj.stats();
  std::printf("\n-- fault injection --\n");
  std::printf("plan                %s (seed %llu)\n",
              inj.plan().summary().c_str(),
              static_cast<unsigned long long>(inj.seed()));
  std::printf("injected            %llu hangs | %llu slowdowns | "
              "%llu task errors | %llu drops | %llu delays | %llu dups\n",
              static_cast<unsigned long long>(st.hangs),
              static_cast<unsigned long long>(st.slowdowns),
              static_cast<unsigned long long>(st.task_errors),
              static_cast<unsigned long long>(st.drops),
              static_cast<unsigned long long>(st.delays),
              static_cast<unsigned long long>(st.duplicates));
  std::printf("tolerated           %llu retries | %llu speculations "
              "(%llu won) | %llu duplicates discarded | %llu retransmits\n",
              static_cast<unsigned long long>(s.task_retries),
              static_cast<unsigned long long>(s.speculations),
              static_cast<unsigned long long>(s.speculative_wins),
              static_cast<unsigned long long>(s.double_completions),
              static_cast<unsigned long long>(s.retransmits));
  std::printf("degradation         %d node(s) blacklisted, %d job attempt(s)\n",
              s.blacklisted_nodes, s.job_attempts);
}

/// Per-node utilization: busy time and link traffic from each FatNode's
/// counters, plus utilization relative to the job's virtual span.
void print_node_table(core::Cluster& cluster, double elapsed) {
  std::printf("\n-- per-node utilization --\n");
  TextTable t({"node", "cpu busy", "cpu util", "gpu busy", "gpu util",
               "pcie traffic"});
  auto pct = [](double busy, double denom) {
    if (denom <= 0.0) return std::string("-");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", busy / denom * 100.0);
    return std::string(buf);
  };
  for (int r = 0; r < cluster.size(); ++r) {
    core::FatNode& n = cluster.node(r);
    const double cpu_denom = elapsed * n.cpu().cores();
    const double gpu_denom = elapsed * n.gpu_count();
    t.add_row({"node" + std::to_string(r),
               units::format_time(n.cpu_busy()), pct(n.cpu_busy(), cpu_denom),
               units::format_time(n.gpu_busy()), pct(n.gpu_busy(), gpu_denom),
               units::format_bytes(n.pcie_bytes())});
  }
  t.print();
}

int run(const tools::Options& opt) {
  // Size the real host pool before any kernel runs; 0 keeps the
  // PRS_HOST_THREADS / hardware_concurrency default. Either way the
  // numeric results are byte-identical (see DESIGN.md "Host execution").
  if (opt.host_threads > 0) {
    exec::ThreadPool::instance().configure(opt.host_threads);
  }
  // SIMD level before any kernel runs. --simd overrides $PRS_SIMD; an
  // unsupported request throws (prs::Error handler in main). The status
  // line only appears when a flag was given, keeping default stdout
  // byte-identical to pre-SIMD builds.
  if (!opt.simd.empty()) {
    simd::set_level(opt.simd);
    std::printf("simd level          %s\n",
                simd::level_name(simd::active_level()));
  }
  sim::Simulator sim;
  obs::TraceRecorder tracer(sim);
  const bool observing = !opt.trace_path.empty() || !opt.metrics_path.empty();
  if (observing) sim.set_tracer(&tracer);

  const svc::JobSpec& spec = opt.job;
  core::NodeConfig node = spec.node_config();
  core::Cluster cluster(sim, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  // --graph-dump is CLI-local (a file path on this host), not wire state.
  cfg.graph_dump_path = opt.graph_dump;
  // One policy instance for the whole invocation: with --policy=adaptive it
  // keeps its learned per-node fractions across --repeat runs.
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  // Feed the measured host vector throughput into the Eq (8) split: the
  // roofline's calibrated Fc describes the scalar host kernels, so a
  // vectorized host deserves a proportionally larger CPU share.
  if (opt.simd_calibrate) {
    cfg.host_simd_scale = simd::measure_host_speedup();
    std::printf("simd calibration    host speedup x%.2f at level %s "
                "(scales Fc in the Eq (8) split)\n",
                cfg.host_simd_scale, simd::level_name(simd::active_level()));
  }
  Rng rng(spec.seed);

  // Fault injection attaches the injector to the job config (run_job then
  // runs the job graph in its faulted form). Checkpointing keeps
  // file-backed snapshots of the iterative driver's state: a node_crash
  // halts the run with the latest snapshot on disk, and --resume picks it
  // up and replays only the lost iterations.
  const svc::JobFixtures fx = svc::make_job_fixtures(spec, sim, cfg);
  const ckpt::CheckpointConfig* checkpoint = fx.checkpoint_config();
  if (checkpoint != nullptr) {
    std::printf("checkpointing every %d iteration(s) to %s%s\n",
                checkpoint->interval, spec.checkpoint_dir.c_str(),
                spec.resume ? " (resuming from the latest snapshot)" : "");
  }

  for (int rep = 0; rep < opt.repeat; ++rep) {
    if (opt.repeat > 1) std::printf("\n=== run %d/%d ===\n", rep + 1, opt.repeat);
    // The same dispatch the job server uses — one code path, one digest.
    svc::LaunchOutcome out =
        svc::run_job_spec(spec, cluster, node, cfg, rng, checkpoint);
    for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
    const exec::PoolStats pool = exec::ThreadPool::instance().stats();
    std::fputs(svc::job_stats_text(out.stats, spec.nodes, &pool).c_str(),
               stdout);
    if (fx.injector != nullptr) print_fault_summary(*fx.injector, out.stats);
    print_node_table(cluster, out.stats.elapsed);
    if (const auto* ap =
            dynamic_cast<const core::AdaptiveFeedbackPolicy*>(policy.get())) {
      std::printf("\n-- adaptive policy --\n");
      for (int r = 0; r < cluster.size(); ++r) {
        const double p = ap->learned_fraction(r);
        if (p >= 0.0) {
          std::printf("node%d learned p = %.1f%%\n", r, p * 100.0);
        } else {
          std::printf("node%d learned p = (analytic, no feedback yet)\n", r);
        }
      }
    }
    // Fresh counters per run so each summary reports that run only.
    if (rep + 1 < opt.repeat) cluster.reset_counters();
  }

  // Export failures (unwritable path, full disk) must not discard the
  // results already printed above: report to stderr and exit nonzero.
  int rc = 0;
  if (!opt.trace_path.empty()) {
    try {
      obs::export_chrome_trace(tracer, opt.trace_path);
      std::printf("\ntrace written to %s (open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  opt.trace_path.c_str());
    } catch (const prs::Error& e) {
      std::fprintf(stderr, "error: trace export failed: %s\n", e.what());
      rc = 1;
    }
  }
  if (!opt.metrics_path.empty()) {
    try {
      obs::record_pool_metrics(tracer.metrics());
      obs::export_metrics(tracer.metrics(), opt.metrics_path);
      std::printf("metrics written to %s\n", opt.metrics_path.c_str());
    } catch (const prs::Error& e) {
      std::fprintf(stderr, "error: metrics export failed: %s\n", e.what());
      rc = 1;
    }
  }
  return rc;
}

/// Prints one protocol response; returns 0 on an OK header, 1 otherwise
/// (ERR or RETRY-AFTER that survived the retry budget).
int print_response(const std::string& response) {
  const bool ok = response.rfind("OK", 0) == 0;
  std::fputs(response.c_str(), ok ? stdout : stderr);
  return ok ? 0 : 1;
}

// Client exit codes: 0 success, 1 server-side error / failed job,
// 2 usage, 3 server unreachable (distinct so scripts can tell "the job
// failed" from "the daemon is not there").
constexpr int kExitUnreachable = 3;

svc::RetryPolicy retry_policy(const tools::Options& opt) {
  svc::RetryPolicy policy;
  policy.retries = opt.server_retries;
  policy.base_ms = opt.retry_base_ms;
  policy.seed = opt.retry_seed;
  policy.timeout_ms = opt.server_timeout_ms;
  return policy;
}

/// Client mode: one request (or submit+wait) against a running prs_serve,
/// riding out restarts and shedding within the --server-retries budget.
int client_run(const tools::Options& opt) {
  const svc::RetryPolicy policy = retry_policy(opt);
  svc::ResilientClient client(opt.server_socket, policy);
  if (policy.retries > 0) {
    // Announce the deterministic backoff schedule once, then narrate each
    // retry as it happens — silence while sleeping looks like a hang.
    std::fprintf(stderr, "retry schedule (on failure): %s\n",
                 svc::backoff_schedule(policy).c_str());
  }
  client.set_retry_observer(
      [](int attempt, int sleep_ms, const std::string& why) {
        std::fprintf(stderr, "retry %d in %dms: %s\n", attempt, sleep_ms,
                     why.c_str());
      });
  if (opt.submit) {
    std::string line = "SUBMIT tenant=" + opt.tenant;
    if (!opt.dedup.empty()) line += " dedup=" + opt.dedup;
    const std::string tokens = opt.job.to_tokens();
    if (!tokens.empty()) line += " " + tokens;
    // Without a dedup key a SUBMIT must not be replayed once it may have
    // reached the server — a crash between send and reply would otherwise
    // admit the job twice.
    const std::string submitted =
        client.request(line, /*idempotent=*/!opt.dedup.empty());
    if (print_response(submitted) != 0) return 1;
    const long id = svc::header_field(submitted, "id", -1);
    if (id < 0) {
      std::fprintf(stderr, "error: server response carried no job id\n");
      return 1;
    }
    const std::string done = client.wait_job(static_cast<int>(id));
    int rc = print_response(done);
    if (rc == 0 && done.find(" state=DONE") == std::string::npos) rc = 1;
    return rc;
  }
  if (opt.job_status >= 0) {
    return print_response(
        client.request("STATUS " + std::to_string(opt.job_status)));
  }
  if (opt.wait_job >= 0) {
    return print_response(client.wait_job(opt.wait_job));
  }
  if (opt.cancel_job >= 0) {
    return print_response(
        client.request("CANCEL " + std::to_string(opt.cancel_job)));
  }
  if (opt.server_stats) return print_response(client.request("STATS"));
  if (opt.drain_server) return print_response(client.request("DRAIN"));
  if (opt.shutdown_server) return print_response(client.request("SHUTDOWN"));
  std::fprintf(stderr, "error: no client action\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Options opt;
  std::string error;
  if (!tools::parse_options(argc, argv, opt, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (opt.show_help) {
    std::printf("%s", tools::usage().c_str());
    return 0;
  }
  if (opt.show_list) {
    std::printf(
        "apps: cmeans kmeans gmm gemv dgemm fft wordcount stencil\n"
        "testbeds: delta (Xeon 5660 + C2070), bigred2 (Opteron + K20), "
        "phi (Xeon + Phi 5110P)\n");
    return 0;
  }
  try {
    if (!opt.server_socket.empty()) return client_run(opt);
    return run(opt);
  } catch (const svc::ConnectFailed& e) {
    std::fprintf(stderr,
                 "error: server not running at %s? (%s)\n"
                 "start it with: prs_serve --socket=%s\n",
                 opt.server_socket.c_str(), e.what(),
                 opt.server_socket.c_str());
    return kExitUnreachable;
  } catch (const prs::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
