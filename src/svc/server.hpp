// The multi-tenant job server: a long-lived service that admits jobs from
// many tenants and schedules them over the shared host thread pool and the
// virtual-GPU pool.
//
// Execution model — time-sliced vGPU gang scheduling. Every job runs its
// own private simulation (Simulator + Cluster) on its own host thread, but
// the server grants exactly ONE job permission to execute at any moment:
// job threads park at a cooperative gate (JobConfig::stage_gate, invoked by
// run_iterative at every iteration boundary) and the scheduler picks who
// advances next by weighted fair share (stride scheduling over tenants, see
// fair_share.hpp). This is the same sharing discipline as NVIDIA's
// time-sliced vGPU profiles: tenants multiplex the physical cards in time,
// each seeing a private device. Serializing stages is what buys the two
// load-bearing properties:
//   * determinism — the grant sequence is a pure function of the submission
//     history (ties in the stride scheduler break by tenant name, job id),
//     so every run of the same submissions schedules identically; and
//   * digest equality — each job's numeric work happens inside its private
//     cluster through the same svc::run_job_spec path prs_run uses, with no
//     cross-job interleaving inside the shared exec::ThreadPool, so a job
//     submitted to the server produces byte-identical results to the same
//     job run single-shot.
//
// "Concurrency" here means what it means for time-sliced vGPUs: many jobs
// are admitted, hold vGPU leases and interleave at iteration granularity;
// their stages never overlap.
//
// Virtual service clock: vnow() advances by each stage's virtual elapsed
// time. Queue wait (admission to first grant) is measured on this clock and
// recorded in the svc.queue_wait histogram; per-tenant virtual device-time
// service backs the fair-share accounting and the 2:1-within-5% acceptance
// test.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simdev/virtual_gpu.hpp"
#include "simtime/simulator.hpp"
#include "svc/admission.hpp"
#include "svc/job_spec.hpp"
#include "svc/journal.hpp"
#include "svc/launcher.hpp"
#include "svc/tenant.hpp"

namespace prs::svc {

/// Thrown inside a job thread when its job is cancelled at a scheduling
/// gate. Deliberately NOT derived from prs::Error so no library-internal
/// recovery path (fault tolerance, checkpointing) can swallow it.
struct JobCancelled {};

enum class JobState {
  kQueued,        // admitted, waiting for resources (vGPU lease / slot)
  kStarting,      // thread spawned, not yet parked at its first gate
  kWaiting,       // parked at a scheduling gate
  kRunningStage,  // granted; executing one stage of virtual time
  kDone,
  kFailed,
  kCancelled,
};

const char* job_state_name(JobState s);
bool job_state_terminal(JobState s);

/// Copyable snapshot of one job, as returned by status()/wait().
struct JobStatus {
  int id = -1;
  std::string tenant;
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::string error;   // failure reason / cancel note
  std::string digest;  // result digest (terminal kDone only)
  std::vector<std::string> lines;  // result lines in prs_run format
  core::JobStats stats;
  int stages = 0;           // scheduling gates passed
  double queue_wait = 0.0;  // vnow at first grant - vnow at submit
  double service = 0.0;     // virtual device-seconds charged
  double submit_vnow = 0.0;
  double finish_vnow = 0.0;
  bool recovered = false;  // re-admitted (or restored) from the journal
};

class JobServer {
 public:
  struct Config {
    simdev::VGpuPoolConfig pool;
    AdmissionConfig admission;
    /// Record per-stage spans (tenant-per-track) for chrome://tracing.
    bool record_trace = false;
    /// Write-ahead journal (owned by the caller, may be null). When set,
    /// SUBMIT and terminal transitions are durably journaled before they
    /// are acknowledged, and recover() can rebuild the queue after a
    /// crash.
    Journal* journal = nullptr;
    /// Journal a GATE progress record every N scheduling gates (async,
    /// advisory — governs how much recovery knows about progress).
    int journal_gate_every = 4;
    /// Delay advised to clients when a transient rejection (queue_full /
    /// quota_queued / journal_busy) sheds their submit.
    int shed_retry_ms = 100;
  };

  explicit JobServer(Config cfg);
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;
  /// Stops the pump, cancels any live jobs and joins their threads.
  ~JobServer();

  /// Registers a tenant before it may submit. Re-adding an existing tenant
  /// updates its quota only.
  void add_tenant(const std::string& name, TenantQuota quota);

  struct SubmitResult {
    int job_id = -1;  // -1 on rejection
    AdmitDecision decision;
    bool deduped = false;     // an existing job with the same dedup key
    int retry_after_ms = 0;   // > 0: transient rejection, retry after this
    bool ok() const { return decision.ok(); }
  };

  /// Synchronous admission: quota/backpressure rejections are decided (and
  /// counted) here, deterministically; accepted jobs enter the queue.
  /// A non-empty `dedup` key makes the submit idempotent per tenant: a
  /// repeat with the same key returns the existing job's id (whatever its
  /// state) without admission or quota effects.
  SubmitResult submit(const std::string& tenant, JobSpec spec,
                      const std::string& dedup = "");

  struct RecoveryStats {
    int journal_records = 0;     // records replayed
    bool torn_tail = false;      // journal ended mid-record (crash artifact)
    int jobs_restored = 0;       // already-terminal jobs restored as history
    int jobs_recovered = 0;      // incomplete jobs re-admitted to the queue
    int jobs_resumed = 0;        // of those, will resume from a checkpoint
    int jobs_failed = 0;         // could not be re-admitted (tenant/pool)
  };

  /// Replays cfg.journal and rebuilds state from it: terminal jobs become
  /// queryable history (digest/result lines restored), incomplete jobs are
  /// re-admitted in their original admission order (ascending id) with
  /// their original ids, and started iterative jobs with a checkpoint_dir
  /// are flipped to resume from their latest snapshot instead of iteration
  /// 0. Call after add_tenant() and before start()/run_until_idle(); a
  /// null or empty journal is a no-op.
  RecoveryStats recover();

  // -- scheduling pump -------------------------------------------------
  /// Runs the scheduler on the calling thread until every submitted job is
  /// terminal (the test-friendly mode).
  void run_until_idle();
  /// Runs the scheduler on a background thread until stop() (the daemon
  /// mode used by prs_serve).
  void start();
  void stop();

  // -- job control -----------------------------------------------------
  /// Snapshot of one job; throws prs::InvalidArgument on an unknown id.
  JobStatus status(int job_id) const;
  /// Blocks until the job is terminal (needs a running pump).
  JobStatus wait(int job_id);
  /// Blocks until the job has passed `stages` gates or is terminal; returns
  /// false in the terminal case. Used to cancel mid-iteration in tests.
  bool wait_for_stages(int job_id, int stages);
  /// Requests cancellation: queued jobs cancel immediately, running jobs at
  /// their next scheduling gate. Returns false when already terminal.
  bool cancel(int job_id);
  /// Stops admitting new jobs; already-admitted jobs run to completion.
  void drain();
  bool draining() const;

  // -- introspection ---------------------------------------------------
  bool idle() const;
  double vnow() const;
  std::vector<std::string> tenants() const;
  /// Cumulative virtual device-time service charged to one tenant.
  double tenant_service(const std::string& name) const;
  TenantAccount tenant_account(const std::string& name) const;
  std::vector<JobStatus> jobs() const;
  const simdev::VirtualGpuPool& pool() const { return pool_; }
  /// svc.* counters and the queue-wait histogram as a JSON object.
  std::string metrics_json() const;
  /// Exports the per-stage span trace (only populated with record_trace).
  void export_trace(const std::string& path) const;

 private:
  struct Job {
    int id = 0;
    std::string tenant;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::string error;
    LaunchOutcome outcome;
    std::string dedup;       // client idempotency key ("" = none)
    bool recovered = false;  // rebuilt from the journal after a restart
    int stages = 0;
    double queue_wait = 0.0;
    double service = 0.0;
    double submit_vnow = 0.0;
    double stage_begin_vnow = 0.0;
    double finish_vnow = 0.0;
    bool granted = false;           // gate handshake flag
    bool cancel_requested = false;
    // Baselines for per-stage deltas, read by the job thread only.
    double last_sim_time = 0.0;
    simdev::VGpuLease lease;
    std::thread thread;
  };

  // Pump internals (mu_ held).
  void start_ready_jobs(std::unique_lock<std::mutex>& lk);
  bool pump_once(std::unique_lock<std::mutex>& lk);
  void grant_next(std::unique_lock<std::mutex>& lk);
  int active_jobs_locked() const;   // non-terminal
  int queued_jobs_locked() const;
  JobStatus snapshot_locked(const Job& job) const;
  Job* find_locked(int job_id);
  const Job* find_locked(int job_id) const;
  void finish_job_locked(Job& job, JobState final_state,
                         const std::string& error);
  void reap_finished();
  /// Journals a terminal/progress transition (no-op without a journal).
  void journal_transition_locked(const Job& job, JournalRecordType type);

  // Job-thread side.
  void job_thread_main(Job* job);
  void run_one_job(Job* job);
  /// Parks at the gate, charging the stage that just ended. `sim_now` and
  /// usage come from the job's private cluster (ready gate passes zeros).
  /// Throws JobCancelled when cancellation was requested.
  void gate_wait(Job* job, double sim_now, std::uint64_t open_streams,
                 std::uint64_t memory_in_use);
  void settle_stage_locked(Job& job, double sim_now);

  Config cfg_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  simdev::VirtualGpuPool pool_;
  std::map<std::string, TenantAccount> tenants_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::map<std::string, int> dedup_;  // tenant + '\n' + key -> job id
  int next_job_id_ = 1;
  int running_job_ = -1;  // id of the job currently granted a stage
  double vnow_ = 0.0;
  bool draining_ = false;
  bool shutting_down_ = false;

  std::thread pump_thread_;
  bool pump_running_ = false;
  bool pump_stop_ = false;

  obs::MetricsRegistry metrics_;
  // Trace spans are recorded on the service clock against a never-run
  // simulator (TraceRecorder needs one for its instant/counter helpers).
  sim::Simulator trace_sim_;
  obs::TraceRecorder trace_;
};

}  // namespace prs::svc
