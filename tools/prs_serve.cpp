// prs_serve — the multi-tenant PRS job server daemon.
//
// Owns a virtual-GPU pool multiplexed over simulated physical cards and a
// weighted fair-share scheduler, and serves the line protocol
// (svc/protocol.hpp) on a local unix socket. Jobs are submitted with
// `prs_run --server=PATH --submit ...` and produce byte-identical result
// digests to single-shot runs.
//
//   prs_serve --socket=/tmp/prs.sock --cards=2 --tenants=alice:2:4,bob:1:4
//   prs_run --server=/tmp/prs.sock --tenant=alice --submit --app=cmeans ...
//   prs_run --server=/tmp/prs.sock --shutdown-server
#include <sys/stat.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "svc/journal.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace {

using namespace prs;

struct ServeOptions {
  std::string socket_path = "/tmp/prs_serve.sock";
  int cards = 2;
  int slots_per_card = 2;   // vGPU oversubscription factor
  int max_queue = 32;
  int host_threads = 0;
  std::string tenants;      // name:weight[:max_vgpus],...
  std::string metrics_path; // svc.* metrics JSON, written on shutdown
  std::string trace_path;   // per-stage span timeline, written on shutdown
  std::string journal_dir;  // write-ahead journal directory; empty = off
  int journal_gate_every = 4;    // journal a GATE record every N stages
  int journal_max_pending = 256; // fsync queue bound before shedding
  std::string crash_after;  // TYPE[:N] — _Exit(137) after the N-th fsynced
                            // record of TYPE (crash-matrix hook)
  bool show_help = false;
};

std::string usage() {
  return R"(prs_serve — multi-tenant job server for the PRS runtime

usage: prs_serve [options]
  --socket=PATH        unix socket to listen on (default /tmp/prs_serve.sock)
  --cards=N            physical simulated cards in the vGPU pool (default 2)
  --slots-per-card=N   vGPU slots per card, i.e. the oversubscription
                       factor (default 2)
  --max-queue=N        global bound on queued jobs; submits beyond it are
                       rejected with code=queue_full (default 32)
  --tenants=SPEC       comma-separated name:weight[:max_vgpus] entries,
                       e.g. "alice:2:4,bob:1:4"; weight drives the stride
                       fair-share scheduler. Default: one tenant "default"
                       with weight 1.
  --host-threads=N     real host threads for the shared numeric pool
  --metrics=FILE       write svc.* metrics JSON on shutdown
  --trace=FILE         write the per-stage Chrome trace on shutdown
  --journal-dir=DIR    write-ahead journal for crash recovery: job
                       transitions are logged to DIR/journal.wal and
                       replayed on startup, re-admitting incomplete jobs
                       (resuming from their checkpoints when available)
  --journal-gate-every=N
                       journal a GATE progress record every N settled
                       stages (default 4; 0 disables GATE records)
  --journal-max-pending=N
                       journal fsync queue bound; submits beyond it get
                       RETRY-AFTER instead of blocking (default 256)
  --crash-after-journal=TYPE[:N]
                       test hook: _Exit(137) right after the N-th (default
                       1st) fsynced record of TYPE (submit|start|gate|
                       done|fail|cancel) — drives the crash matrix
  --help               this text

Stop with: prs_run --server=PATH --shutdown-server
)";
}

bool parse_int_arg(const std::string& v, int& out) {
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

bool parse_double_arg(const std::string& v, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(v, &pos);
    return pos == v.size();
  } catch (...) {
    return false;
  }
}

bool parse_serve_options(int argc, char** argv, ServeOptions& out,
                         std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out.show_help = true;
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
    if (key == "socket") {
      out.socket_path = val;
      ok = !val.empty();
    } else if (key == "cards") {
      ok = parse_int_arg(val, out.cards) && out.cards >= 1;
    } else if (key == "slots-per-card") {
      ok = parse_int_arg(val, out.slots_per_card) && out.slots_per_card >= 1;
    } else if (key == "max-queue") {
      ok = parse_int_arg(val, out.max_queue) && out.max_queue >= 1;
    } else if (key == "host-threads") {
      ok = parse_int_arg(val, out.host_threads) && out.host_threads >= 0 &&
           out.host_threads <= exec::ThreadPool::kMaxThreads;
    } else if (key == "tenants") {
      out.tenants = val;
      ok = !val.empty();
    } else if (key == "metrics") {
      out.metrics_path = val;
      ok = !val.empty();
    } else if (key == "trace") {
      out.trace_path = val;
      ok = !val.empty();
    } else if (key == "journal-dir") {
      out.journal_dir = val;
      ok = !val.empty();
    } else if (key == "journal-gate-every") {
      ok = parse_int_arg(val, out.journal_gate_every) &&
           out.journal_gate_every >= 0;
    } else if (key == "journal-max-pending") {
      ok = parse_int_arg(val, out.journal_max_pending) &&
           out.journal_max_pending >= 1;
    } else if (key == "crash-after-journal") {
      out.crash_after = val;
      ok = !val.empty();
    } else {
      error = "unknown option: --" + key + " (see --help)";
      return false;
    }
    if (!ok) {
      error = "invalid value for --" + key + ": " + val;
      return false;
    }
  }
  return true;
}

/// Parses "name:weight[:max_vgpus]" entries and registers them.
void add_tenants(svc::JobServer& server, const std::string& spec,
                 int pool_capacity) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    std::vector<std::string> parts;
    std::size_t p = 0;
    while (p <= entry.size()) {
      auto colon = entry.find(':', p);
      if (colon == std::string::npos) colon = entry.size();
      parts.push_back(entry.substr(p, colon - p));
      p = colon + 1;
    }
    PRS_REQUIRE(!parts.empty() && !parts[0].empty(),
                "malformed --tenants entry '" + entry + "'");
    svc::TenantQuota quota;
    quota.max_vgpus = pool_capacity;
    if (parts.size() >= 2) {
      PRS_REQUIRE(parse_double_arg(parts[1], quota.weight),
                  "malformed tenant weight in '" + entry + "'");
      PRS_REQUIRE(std::isfinite(quota.weight) && quota.weight > 0.0,
                  "tenant weight must be finite and positive in '" + entry +
                      "'");
    }
    if (parts.size() >= 3) {
      int v = 0;
      PRS_REQUIRE(parse_int_arg(parts[2], v) && v >= 1,
                  "malformed tenant max_vgpus in '" + entry + "'");
      quota.max_vgpus = v;
    }
    PRS_REQUIRE(parts.size() <= 3,
                "too many ':' fields in --tenants entry '" + entry + "'");
    server.add_tenant(parts[0], quota);
  }
}

/// Wires --crash-after-journal=TYPE[:N] to a post-sync _Exit(137) so the
/// crash matrix can kill the daemon at a precise durability boundary.
void arm_crash_hook(svc::Journal& journal, const std::string& spec) {
  std::string name = spec;
  std::uint64_t nth = 1;
  if (auto colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    int n = 0;
    PRS_REQUIRE(parse_int_arg(spec.substr(colon + 1), n) && n >= 1,
                "malformed --crash-after-journal count in '" + spec + "'");
    nth = static_cast<std::uint64_t>(n);
  }
  svc::JournalRecordType type;
  PRS_REQUIRE(svc::parse_journal_record_name(name, &type),
              "unknown --crash-after-journal record type '" + name + "'");
  journal.set_post_sync_hook(
      [type, nth](svc::JournalRecordType t, std::uint64_t count) {
        if (t == type && count >= nth) {
          // _Exit: no destructors, no flush — exactly what a crash is.
          std::_Exit(137);
        }
      });
}

int serve(const ServeOptions& opt) {
  if (opt.host_threads > 0) {
    exec::ThreadPool::instance().configure(opt.host_threads);
  }
  std::unique_ptr<svc::Journal> journal;
  if (!opt.journal_dir.empty()) {
    ::mkdir(opt.journal_dir.c_str(), 0755);  // EEXIST is fine
    svc::Journal::Config jcfg;
    jcfg.path = opt.journal_dir + "/journal.wal";
    jcfg.max_pending = opt.journal_max_pending;
    journal = std::make_unique<svc::Journal>(jcfg);
    if (!opt.crash_after.empty()) arm_crash_hook(*journal, opt.crash_after);
  } else {
    PRS_REQUIRE(opt.crash_after.empty(),
                "--crash-after-journal requires --journal-dir");
  }
  svc::JobServer::Config cfg;
  cfg.pool.cards = opt.cards;
  cfg.pool.slots_per_card = opt.slots_per_card;
  cfg.admission.max_queue_depth = opt.max_queue;
  cfg.record_trace = !opt.trace_path.empty();
  cfg.journal = journal.get();
  cfg.journal_gate_every = opt.journal_gate_every;
  svc::JobServer server(cfg);
  if (opt.tenants.empty()) {
    svc::TenantQuota quota;
    quota.max_vgpus = server.pool().capacity();
    server.add_tenant("default", quota);
  } else {
    add_tenants(server, opt.tenants, server.pool().capacity());
  }
  if (journal) {
    const svc::JobServer::RecoveryStats rec = server.recover();
    if (rec.journal_records > 0) {
      std::printf(
          "recovered %d job(s) from %s (%d record(s)%s): "
          "%d restored, %d resumed from checkpoint, %d failed\n",
          rec.jobs_recovered, journal->path().c_str(), rec.journal_records,
          rec.torn_tail ? ", torn tail" : "", rec.jobs_restored,
          rec.jobs_resumed, rec.jobs_failed);
    }
  }
  server.start();

  svc::SocketServer sock(
      opt.socket_path,
      [&server](const std::string& line, bool* shutdown) {
        return svc::handle_request(server, line, shutdown);
      });
  // The readiness line CI (and scripts) wait for before submitting.
  std::printf("listening on %s (%d card(s) x %d slot(s), queue bound %d)\n",
              opt.socket_path.c_str(), opt.cards, opt.slots_per_card,
              opt.max_queue);
  std::fflush(stdout);

  sock.wait_for_shutdown();
  sock.stop();
  server.stop();

  int rc = 0;
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    out << server.metrics_json();
    if (!out) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   opt.metrics_path.c_str());
      rc = 1;
    }
  }
  if (!opt.trace_path.empty()) {
    try {
      server.export_trace(opt.trace_path);
    } catch (const prs::Error& e) {
      std::fprintf(stderr, "error: trace export failed: %s\n", e.what());
      rc = 1;
    }
  }
  std::printf("server stopped\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opt;
  std::string error;
  if (!parse_serve_options(argc, argv, opt, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (opt.show_help) {
    std::printf("%s", usage().c_str());
    return 0;
  }
  try {
    return serve(opt);
  } catch (const prs::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
