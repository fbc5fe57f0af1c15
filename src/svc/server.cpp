#include "svc/server.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ckpt/checkpoint.hpp"
#include "ckpt/store.hpp"
#include "common/error.hpp"
#include "core/schedule_policy.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "svc/fair_share.hpp"

namespace prs::svc {
namespace {

constexpr const char* kQueueWaitHist = "svc.queue_wait_vsec";

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kStarting: return "STARTING";
    case JobState::kWaiting: return "WAITING";
    case JobState::kRunningStage: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "UNKNOWN";
}

bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

JobServer::JobServer(Config cfg)
    : cfg_(cfg),
      admission_(cfg.admission),
      pool_(cfg.pool),
      trace_(trace_sim_) {
  trace_.set_enabled(cfg_.record_trace);
  // Fixed bucket shape so two servers' histograms merge/diff cleanly.
  metrics_.histogram(kQueueWaitHist, obs::geometric_buckets(1e-3, 4.0, 16));
}

JobServer::~JobServer() {
  stop();
  {
    std::unique_lock<std::mutex> lk(mu_);
    shutting_down_ = true;
    for (auto& job : jobs_) {
      if (!job_state_terminal(job->state)) job->cancel_requested = true;
    }
    cv_.notify_all();
    // Parked job threads need grants to observe the cancel; keep granting
    // until every job is terminal.
    while (active_jobs_locked() > 0) {
      for (auto& job : jobs_) {
        if (job->state == JobState::kQueued) {
          finish_job_locked(*job, JobState::kCancelled, "server shutdown");
        }
      }
      if (active_jobs_locked() == 0) break;
      cv_.wait(lk);
    }
  }
  reap_finished();
}

void JobServer::add_tenant(const std::string& name, TenantQuota quota) {
  PRS_REQUIRE(!name.empty(), "tenant name must not be empty");
  // An infinite weight would make every stride charge zero, so that tenant
  // would win every grant while it has work and starve the rest.
  PRS_REQUIRE(std::isfinite(quota.weight) && quota.weight > 0.0,
              "tenant weight must be finite and positive");
  std::lock_guard<std::mutex> lk(mu_);
  TenantAccount& t = tenants_[name];
  t.name = name;
  t.quota = quota;
}

JobServer::SubmitResult JobServer::submit(const std::string& tenant,
                                          JobSpec spec,
                                          const std::string& dedup) {
  std::unique_lock<std::mutex> lk(mu_);
  SubmitResult res;
  // Idempotent replay: a repeat of a dedup-keyed submit (a client retrying
  // after a dropped reply) returns the existing job, whatever its state,
  // before admission runs — no second quota charge, no second job.
  if (!dedup.empty()) {
    auto hit = dedup_.find(tenant + "\n" + dedup);
    if (hit != dedup_.end()) {
      res.job_id = hit->second;
      res.deduped = true;
      metrics_.counter("svc.submit_dedup_hits").increment();
      return res;
    }
  }
  auto it = tenants_.find(tenant);
  TenantAccount* account = it == tenants_.end() ? nullptr : &it->second;
  res.decision = admission_.check(account, spec, pool_.capacity(),
                                  queued_jobs_locked(), draining_);
  if (res.decision.ok() && cfg_.journal != nullptr) {
    // Write-ahead: the SUBMIT record must be on disk before the job exists,
    // so an accepted job is never lost to a crash. A saturated fsync queue
    // sheds the submit instead of blocking the client indefinitely.
    JournalRecord rec;
    rec.type = JournalRecordType::kSubmit;
    rec.job_id = next_job_id_;  // reserved only if the append lands
    rec.tenant = tenant;
    rec.dedup = dedup;
    rec.spec_tokens = spec.to_tokens();
    if (!cfg_.journal->append_durable(rec)) {
      res.decision = {AdmitCode::kJournalBusy,
                      "journal fsync queue is saturated"};
      metrics_.counter("svc.journal_shed").increment();
    }
  }
  if (!res.decision.ok()) {
    metrics_.counter("svc.jobs_rejected").increment();
    metrics_
        .counter(std::string("svc.rejected.") +
                 admit_code_name(res.decision.code))
        .increment();
    if (account != nullptr) account->jobs_rejected++;
    if (admit_code_retryable(res.decision.code)) {
      res.retry_after_ms = cfg_.shed_retry_ms;
    }
    return res;
  }

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->tenant = tenant;
  job->spec = std::move(spec);
  job->dedup = dedup;
  job->submit_vnow = vnow_;
  res.job_id = job->id;
  if (!dedup.empty()) dedup_[tenant + "\n" + dedup] = job->id;

  account->jobs_submitted++;
  account->queued++;
  account->vgpus_in_use += job->spec.vgpus_needed();
  metrics_.counter("svc.jobs_submitted").increment();

  jobs_.push_back(std::move(job));
  cv_.notify_all();
  return res;
}

JobServer::RecoveryStats JobServer::recover() {
  RecoveryStats out;
  if (cfg_.journal == nullptr) return out;
  const JournalReplay replay = cfg_.journal->replay();
  out.journal_records = static_cast<int>(replay.records.size());
  out.torn_tail = replay.torn_tail;
  if (replay.records.empty()) return out;

  // Fold the record stream into per-job end states. std::map keeps jobs in
  // ascending-id order, which IS the original admission order (ids are
  // assigned under the lock in submit order and only ever grow).
  struct Rebuilt {
    JournalRecord submit;
    bool has_submit = false;
    bool started = false;
    int stages = 0;
    bool terminal = false;
    JournalRecord last_terminal;
  };
  std::map<int, Rebuilt> by_id;
  for (const JournalRecord& rec : replay.records) {
    Rebuilt& r = by_id[rec.job_id];
    switch (rec.type) {
      case JournalRecordType::kSubmit:
        r.submit = rec;
        r.has_submit = true;
        break;
      case JournalRecordType::kStart:
        r.started = true;
        break;
      case JournalRecordType::kGate:
        r.stages = std::max(r.stages, rec.stages);
        break;
      case JournalRecordType::kDone:
      case JournalRecordType::kFail:
      case JournalRecordType::kCancel:
        r.terminal = true;
        r.last_terminal = rec;
        break;
    }
  }

  std::unique_lock<std::mutex> lk(mu_);
  PRS_REQUIRE(jobs_.empty(),
              "recover() must run before any submissions (empty server)");
  for (auto& [id, r] : by_id) {
    if (!r.has_submit) continue;  // progress for a job we never saw admitted
    auto job = std::make_unique<Job>();
    job->id = id;
    job->tenant = r.submit.tenant;
    job->dedup = r.submit.dedup;
    job->recovered = true;
    next_job_id_ = std::max(next_job_id_, id + 1);
    if (!r.submit.dedup.empty()) {
      dedup_[r.submit.tenant + "\n" + r.submit.dedup] = id;
    }
    std::string spec_error;
    try {
      job->spec = parse_job_spec_tokens(r.submit.spec_tokens);
    } catch (const prs::Error& e) {
      spec_error = e.what();  // version drift; surfaced below
    }

    if (r.terminal) {
      // Already finished before the crash: restore as queryable history.
      // No tenant accounting — this incarnation never ran the job.
      switch (r.last_terminal.type) {
        case JournalRecordType::kDone:
          job->state = JobState::kDone;
          job->outcome.digest = r.last_terminal.digest;
          job->outcome.lines = r.last_terminal.lines;
          break;
        case JournalRecordType::kFail:
          job->state = JobState::kFailed;
          job->error = r.last_terminal.error;
          break;
        default:
          job->state = JobState::kCancelled;
          job->error = r.last_terminal.error;
          break;
      }
      job->stages = r.stages;
      out.jobs_restored++;
      metrics_.counter("svc.jobs_restored").increment();
      jobs_.push_back(std::move(job));
      continue;
    }

    // Incomplete: re-admit deterministically with the original id. The job
    // was already admitted once, so quota bounds are not re-checked — only
    // hard impossibilities (unknown tenant, pool too small) fail it.
    auto it = tenants_.find(job->tenant);
    std::string fail;
    if (!spec_error.empty()) {
      fail = "journal spec no longer parses: " + spec_error;
    } else if (it == tenants_.end()) {
      fail = "tenant '" + job->tenant + "' not registered after restart";
    } else if (job->spec.vgpus_needed() > pool_.capacity()) {
      fail = "pool too small after restart: job needs " +
             std::to_string(job->spec.vgpus_needed()) + " vGPU(s), pool has " +
             std::to_string(pool_.capacity());
    }
    if (!fail.empty()) {
      job->state = JobState::kFailed;
      job->error = fail;
      out.jobs_failed++;
      metrics_.counter("svc.jobs_failed").increment();
      jobs_.push_back(std::move(job));
      continue;
    }
    // A started iterative job resumes from its latest snapshot instead of
    // iteration 0 (the ckpt layer guarantees resumed bytes == fault-free
    // bytes). A job that never started has no snapshot, but resume=true is
    // still safe: with an empty store the driver runs fresh.
    if (r.started && !job->spec.checkpoint_dir.empty() && !job->spec.resume) {
      job->spec.resume = true;
    }
    if (job->spec.resume) {
      ckpt::FileCheckpointStore store(job->spec.checkpoint_dir);
      if (ckpt::has_snapshot(store, job->spec.app)) {
        out.jobs_resumed++;
        metrics_.counter("svc.jobs_resumed_from_ckpt").increment();
      }
    }
    TenantAccount& t = it->second;
    t.jobs_submitted++;
    t.queued++;
    t.vgpus_in_use += job->spec.vgpus_needed();
    out.jobs_recovered++;
    metrics_.counter("svc.jobs_recovered").increment();
    jobs_.push_back(std::move(job));
  }
  cv_.notify_all();
  return out;
}

int JobServer::active_jobs_locked() const {
  int n = 0;
  for (const auto& job : jobs_) {
    if (!job_state_terminal(job->state)) ++n;
  }
  return n;
}

int JobServer::queued_jobs_locked() const {
  int n = 0;
  for (const auto& job : jobs_) {
    if (job->state == JobState::kQueued) ++n;
  }
  return n;
}

JobServer::Job* JobServer::find_locked(int job_id) {
  for (auto& job : jobs_) {
    if (job->id == job_id) return job.get();
  }
  return nullptr;
}

const JobServer::Job* JobServer::find_locked(int job_id) const {
  for (const auto& job : jobs_) {
    if (job->id == job_id) return job.get();
  }
  return nullptr;
}

void JobServer::start_ready_jobs(std::unique_lock<std::mutex>&) {
  // Admission order = submission order: walk jobs by ascending id and start
  // every queued job whose tenant has a running slot and whose vGPUs fit.
  // Fairness between tenants is enforced later, per stage, by the stride
  // scheduler — start order only affects when a job *may* compete.
  for (auto& jp : jobs_) {
    Job& job = *jp;
    if (job.state != JobState::kQueued) continue;
    TenantAccount& t = tenants_.at(job.tenant);
    if (t.running >= t.quota.max_running) continue;
    const int need = job.spec.vgpus_needed();
    if (need > 0 && !pool_.can_acquire(need)) continue;

    std::uint64_t quota = job.spec.gpu_mem_bytes;
    if (t.quota.gpu_mem_bytes > 0 &&
        (quota == 0 || quota > t.quota.gpu_mem_bytes)) {
      quota = t.quota.gpu_mem_bytes;
    }
    if (need > 0) job.lease = pool_.acquire(job.tenant, need, quota);

    // Stride join rule: a tenant entering the runnable set is clamped to
    // the minimum active pass so idle time cannot bank credit.
    if (t.running == 0) {
      std::vector<const TenantAccount*> active;
      for (const auto& [name, acct] : tenants_) {
        if (acct.running > 0) active.push_back(&acct);
      }
      if (!active.empty()) stride_clamp_pass(t, stride_min_pass(active));
    }
    t.queued--;
    t.running++;
    job.state = JobState::kStarting;
    journal_transition_locked(job, JournalRecordType::kStart);
    job.thread = std::thread(&JobServer::job_thread_main, this, &job);
  }
}

void JobServer::grant_next(std::unique_lock<std::mutex>&) {
  std::vector<StrideCandidate> candidates;
  std::vector<Job*> waiting;
  for (auto& jp : jobs_) {
    if (jp->state == JobState::kWaiting) {
      candidates.push_back({&tenants_.at(jp->tenant), jp->id});
      waiting.push_back(jp.get());
    }
  }
  const int pick = stride_pick(candidates);
  if (pick < 0) return;
  Job& job = *waiting[pick];
  if (job.stages == 0) {
    job.queue_wait = vnow_ - job.submit_vnow;
    auto& hist = metrics_.histogram(kQueueWaitHist,
                                    obs::geometric_buckets(1e-3, 4.0, 16));
    hist.observe(job.queue_wait);
  }
  job.stage_begin_vnow = vnow_;
  job.granted = true;
  job.state = JobState::kRunningStage;
  running_job_ = job.id;
  metrics_.counter("svc.stages_granted").increment();
  cv_.notify_all();
}

bool JobServer::pump_once(std::unique_lock<std::mutex>& lk) {
  start_ready_jobs(lk);
  if (running_job_ < 0) grant_next(lk);
  if (active_jobs_locked() == 0) return false;  // idle
  // Something is in flight (a granted stage, a starting thread, or a queued
  // job waiting for resources): sleep until state changes.
  cv_.wait(lk);
  return true;
}

void JobServer::run_until_idle() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    PRS_REQUIRE(!pump_running_, "pump already running (start() was called)");
    while (pump_once(lk)) {
    }
  }
  reap_finished();
}

void JobServer::start() {
  std::lock_guard<std::mutex> lk(mu_);
  PRS_REQUIRE(!pump_running_, "pump already running");
  pump_running_ = true;
  pump_stop_ = false;
  pump_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    while (!pump_stop_) {
      start_ready_jobs(lk);
      if (running_job_ < 0) grant_next(lk);
      // Sleep until any state change (submit, gate arrival, completion,
      // stop). Notifies only happen with mu_ held, so none can be lost.
      cv_.wait(lk);
    }
  });
}

void JobServer::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!pump_running_) return;
    pump_stop_ = true;
    cv_.notify_all();
  }
  pump_thread_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    pump_running_ = false;
  }
  reap_finished();
}

void JobServer::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& job : jobs_) {
      if (job_state_terminal(job->state) && job->thread.joinable()) {
        done.push_back(std::move(job->thread));
      }
    }
  }
  for (auto& t : done) t.join();
}

JobStatus JobServer::snapshot_locked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.tenant = job.tenant;
  s.spec = job.spec;
  s.state = job.state;
  s.error = job.error;
  s.digest = job.outcome.digest;
  s.lines = job.outcome.lines;
  s.stats = job.outcome.stats;
  s.stages = job.stages;
  s.queue_wait = job.queue_wait;
  s.service = job.service;
  s.submit_vnow = job.submit_vnow;
  s.finish_vnow = job.finish_vnow;
  s.recovered = job.recovered;
  return s;
}

JobStatus JobServer::status(int job_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Job* job = find_locked(job_id);
  PRS_REQUIRE(job != nullptr,
              "unknown job id " + std::to_string(job_id));
  return snapshot_locked(*job);
}

JobStatus JobServer::wait(int job_id) {
  JobStatus out;
  {
    std::unique_lock<std::mutex> lk(mu_);
    Job* job = find_locked(job_id);
    PRS_REQUIRE(job != nullptr,
                "unknown job id " + std::to_string(job_id));
    cv_.wait(lk, [&] { return job_state_terminal(job->state); });
    out = snapshot_locked(*job);
  }
  reap_finished();
  return out;
}

bool JobServer::wait_for_stages(int job_id, int stages) {
  std::unique_lock<std::mutex> lk(mu_);
  Job* job = find_locked(job_id);
  PRS_REQUIRE(job != nullptr, "unknown job id " + std::to_string(job_id));
  cv_.wait(lk, [&] {
    return job->stages >= stages || job_state_terminal(job->state);
  });
  return job->stages >= stages;
}

bool JobServer::cancel(int job_id) {
  std::lock_guard<std::mutex> lk(mu_);
  Job* job = find_locked(job_id);
  PRS_REQUIRE(job != nullptr, "unknown job id " + std::to_string(job_id));
  if (job_state_terminal(job->state)) return false;
  if (job->state == JobState::kQueued) {
    // Never started: no thread, no lease — cancel in place.
    finish_job_locked(*job, JobState::kCancelled, "cancelled while queued");
    cv_.notify_all();
    return true;
  }
  job->cancel_requested = true;
  cv_.notify_all();
  return true;
}

void JobServer::drain() {
  std::lock_guard<std::mutex> lk(mu_);
  draining_ = true;
}

bool JobServer::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

bool JobServer::idle() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_jobs_locked() == 0;
}

double JobServer::vnow() const {
  std::lock_guard<std::mutex> lk(mu_);
  return vnow_;
}

std::vector<std::string> JobServer::tenants() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const auto& [name, t] : tenants_) out.push_back(name);
  return out;
}

double JobServer::tenant_service(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(name);
  PRS_REQUIRE(it != tenants_.end(), "unknown tenant '" + name + "'");
  return it->second.service;
}

TenantAccount JobServer::tenant_account(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(name);
  PRS_REQUIRE(it != tenants_.end(), "unknown tenant '" + name + "'");
  return it->second;
}

std::vector<JobStatus> JobServer::jobs() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

std::string JobServer::metrics_json() const {
  std::ostringstream out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    obs::write_metrics_json(metrics_, out);
  }
  return out.str();
}

void JobServer::export_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  obs::export_chrome_trace(trace_, path);
}

void JobServer::journal_transition_locked(const Job& job,
                                          JournalRecordType type) {
  if (cfg_.journal == nullptr) return;
  JournalRecord rec;
  rec.type = type;
  rec.job_id = job.id;
  switch (type) {
    case JournalRecordType::kGate:
      rec.stages = job.stages;
      break;
    case JournalRecordType::kDone:
      rec.digest = job.outcome.digest;
      rec.lines = job.outcome.lines;
      break;
    case JournalRecordType::kFail:
    case JournalRecordType::kCancel:
      rec.error = job.error;
      break;
    default:
      break;
  }
  // START and GATE are advisory (they refine recovery, not correctness):
  // async, fire-and-forget. Terminal records are what a restarted server
  // trusts to skip re-running a job, so they wait for the fsync; if the
  // queue is saturated the record is shed and the job simply re-runs after
  // a crash — deterministic, so still correct.
  bool appended = false;
  if (type == JournalRecordType::kStart || type == JournalRecordType::kGate) {
    appended = cfg_.journal->append_async(rec);
  } else {
    appended = cfg_.journal->append_durable(rec);
  }
  if (!appended) metrics_.counter("svc.journal_shed").increment();
}

void JobServer::finish_job_locked(Job& job, JobState final_state,
                                  const std::string& error) {
  TenantAccount& t = tenants_.at(job.tenant);
  if (job.state == JobState::kQueued) {
    t.queued--;
  } else {
    t.running--;
  }
  t.vgpus_in_use -= job.spec.vgpus_needed();
  job.state = final_state;
  job.error = error;
  job.finish_vnow = vnow_;
  if (job.lease.valid()) job.lease.release();
  switch (final_state) {
    case JobState::kDone:
      t.jobs_completed++;
      t.stats.accumulate(job.outcome.stats);
      metrics_.counter("svc.jobs_completed").increment();
      break;
    case JobState::kFailed:
      t.jobs_failed++;
      metrics_.counter("svc.jobs_failed").increment();
      break;
    case JobState::kCancelled:
      t.jobs_cancelled++;
      metrics_.counter("svc.jobs_cancelled").increment();
      break;
    default:
      break;
  }
  // Shutdown cancellations are deliberately NOT journaled: a job cut down
  // by the daemon stopping is exactly what recovery must re-admit.
  if (shutting_down_) return;
  switch (final_state) {
    case JobState::kDone:
      journal_transition_locked(job, JournalRecordType::kDone);
      break;
    case JobState::kFailed:
      journal_transition_locked(job, JournalRecordType::kFail);
      break;
    case JobState::kCancelled:
      journal_transition_locked(job, JournalRecordType::kCancel);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------
// Job-thread side.

void JobServer::settle_stage_locked(Job& job, double sim_now,
                                    double gpu_busy) {
  const double elapsed = sim_now - job.last_sim_time;
  const double busy = gpu_busy - job.last_gpu_busy;
  job.last_sim_time = sim_now;
  job.last_gpu_busy = gpu_busy;
  PRS_CHECK(elapsed >= 0.0, "virtual time ran backwards across a stage");
  // Service = virtual time x width of the reservation, so a 4-vGPU tenant
  // is charged 4x what a 1-vGPU tenant is charged for the same wall of
  // virtual time (device-seconds, the fair-share currency).
  const int width = std::max(1, job.lease.size());
  const double service = elapsed * width;
  TenantAccount& t = tenants_.at(job.tenant);
  stride_charge(t, service);
  job.service += service;
  vnow_ += elapsed;
  job.stages++;
  if (job.lease.valid() && busy > 0.0) pool_.charge_busy(job.lease, busy);
  metrics_.counter("svc.service_vsec").add(service);
  if (cfg_.journal != nullptr && cfg_.journal_gate_every > 0 &&
      job.stages % cfg_.journal_gate_every == 0) {
    journal_transition_locked(job, JournalRecordType::kGate);
  }
  if (trace_.enabled()) {
    obs::TrackId track = trace_.track("svc:" + job.tenant,
                                      job.spec.app + "#" +
                                          std::to_string(job.id));
    trace_.complete(track, "stage " + std::to_string(job.stages), "svc",
                    job.stage_begin_vnow, vnow_);
  }
}

void JobServer::gate_wait(Job* job, double sim_now, double gpu_busy,
                          std::uint64_t open_streams,
                          std::uint64_t memory_in_use) {
  std::unique_lock<std::mutex> lk(mu_);
  if (job->state == JobState::kRunningStage) {
    settle_stage_locked(*job, sim_now, gpu_busy);
    if (job->lease.valid()) {
      pool_.report_usage(job->lease, open_streams, memory_in_use);
    }
  }
  job->state = JobState::kWaiting;
  if (running_job_ == job->id) running_job_ = -1;
  cv_.notify_all();
  cv_.wait(lk, [&] { return job->granted || job->cancel_requested; });
  job->granted = false;
  if (job->cancel_requested) {
    // Unpark without holding the slice: the catch handler in
    // job_thread_main finishes the bookkeeping.
    if (running_job_ == job->id) running_job_ = -1;
    throw JobCancelled{};
  }
}

void JobServer::run_one_job(Job* job) {
  const JobSpec spec = job->spec;  // private copy; stable w/o the lock

  // First gate before ANY setup: dataset generation and cluster
  // construction are real host work, so they too happen inside a granted
  // slice — the shared exec::ThreadPool never sees two jobs at once.
  gate_wait(job, 0.0, 0.0, 0, 0);

  sim::Simulator sim;
  core::NodeConfig node = spec.node_config();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job->lease.valid()) node.gpu = pool_.vgpu_spec(job->lease);
  }
  core::Cluster cluster(sim, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();

  std::unique_ptr<fault::FaultInjector> injector;
  if (!spec.fault_spec.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        sim, fault::FaultPlan::parse(spec.fault_spec), spec.fault_seed);
    cfg.faults = injector.get();
  }

  std::unique_ptr<ckpt::FileCheckpointStore> store;
  ckpt::CheckpointConfig ckpt_cfg;
  const ckpt::CheckpointConfig* checkpoint = nullptr;
  if (!spec.checkpoint_dir.empty()) {
    store = std::make_unique<ckpt::FileCheckpointStore>(spec.checkpoint_dir);
    ckpt_cfg.store = store.get();
    ckpt_cfg.interval = spec.checkpoint_every > 0 ? spec.checkpoint_every : 1;
    ckpt_cfg.recover = spec.resume;
    ckpt_cfg.on_crash = ckpt::OnCrash::kHalt;
    ckpt_cfg.prefix = spec.app;
    ckpt_cfg.run_seed = spec.seed;
    ckpt_cfg.fault_seed = spec.fault_seed;
    checkpoint = &ckpt_cfg;
  }

  cfg.stage_gate = [this, job, &sim, &cluster](int) {
    std::uint64_t streams = 0;
    std::uint64_t memory = 0;
    for (int r = 0; r < cluster.size(); ++r) {
      core::FatNode& n = cluster.node(r);
      for (int g = 0; g < n.gpu_count(); ++g) {
        streams += static_cast<std::uint64_t>(n.gpu(g).stream_count());
        memory += n.gpu(g).memory_used();
      }
      memory += static_cast<std::uint64_t>(n.region().bytes_allocated());
    }
    gate_wait(job, sim.now(), cluster.total_gpu_busy(), streams, memory);
  };

  Rng rng(spec.seed);
  LaunchOutcome outcome =
      run_job_spec(spec, cluster, node, cfg, rng, checkpoint);

  // Final (unparked) settle: charge the tail stage from the last gate to
  // completion, then publish the outcome.
  std::lock_guard<std::mutex> lk(mu_);
  settle_stage_locked(*job, sim.now(), cluster.total_gpu_busy());
  if (running_job_ == job->id) running_job_ = -1;
  job->outcome = std::move(outcome);
  finish_job_locked(*job, JobState::kDone, "");
  cv_.notify_all();
}

void JobServer::job_thread_main(Job* job) {
  try {
    run_one_job(job);
  } catch (const JobCancelled&) {
    std::lock_guard<std::mutex> lk(mu_);
    if (running_job_ == job->id) running_job_ = -1;
    finish_job_locked(*job, JobState::kCancelled, "cancelled at gate");
    cv_.notify_all();
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(mu_);
    if (running_job_ == job->id) running_job_ = -1;
    finish_job_locked(*job, JobState::kFailed, e.what());
    cv_.notify_all();
  }
}

}  // namespace prs::svc
