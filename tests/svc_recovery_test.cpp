// Tests for the job server's durability layer: the write-ahead journal
// (framing, torn-tail replay, group-commit shedding), crash recovery
// (re-admission, checkpoint resume, restored history), idempotent
// resubmission, overload shedding (RETRY-AFTER) and the resilient client
// (deterministic backoff, reconnect across a server restart).
//
// The spine is an in-process crash matrix mirroring
// ckpt_crash_matrix_test.cpp one layer up: a finished run's journal is
// truncated to every record-count prefix — i.e. the server "crashes"
// right after each SUBMIT/START/GATE/DONE record — and a fresh server
// recovering from that prefix must always converge to the single-shot
// oracle digest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/store.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "svc/job_spec.hpp"
#include "svc/launcher.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace prs::svc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JournalRecord submit_record(int id, const std::string& tenant,
                            const JobSpec& spec,
                            const std::string& dedup = "") {
  JournalRecord rec;
  rec.type = JournalRecordType::kSubmit;
  rec.job_id = id;
  rec.tenant = tenant;
  rec.dedup = dedup;
  rec.spec_tokens = spec.to_tokens();
  return rec;
}

void write_journal_file(const std::string& path,
                        const std::vector<JournalRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const JournalRecord& rec : records) out << encode_journal_record(rec);
  ASSERT_TRUE(out.good());
}

JobSpec small_cmeans(int iterations) {
  JobSpec spec;
  spec.app = "cmeans";
  spec.nodes = 1;
  spec.gpus = 1;
  spec.points = 1500;
  spec.dims = 6;
  spec.clusters = 3;
  spec.iterations = iterations;
  spec.functional = true;
  spec.seed = 7;
  return spec;
}

JobServer::Config server_cfg(int cards, int slots, Journal* journal = nullptr,
                             int max_queue = 32) {
  JobServer::Config cfg;
  cfg.pool.cards = cards;
  cfg.pool.slots_per_card = slots;
  cfg.admission.max_queue_depth = max_queue;
  cfg.journal = journal;
  return cfg;
}

/// The digest oracle: the job exactly as prs_run runs it single-shot.
LaunchOutcome run_single_shot(const JobSpec& spec) {
  sim::Simulator sim;
  core::NodeConfig node = spec.node_config();
  core::Cluster cluster(sim, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  Rng rng(spec.seed);
  return run_job_spec(spec, cluster, node, cfg, rng, nullptr);
}

// ------------------------------------------------------------ journal codec

TEST(JournalCodec, AllRecordTypesRoundTrip) {
  const JobSpec spec = small_cmeans(4);
  std::vector<JournalRecord> in;
  in.push_back(submit_record(3, "alice", spec, "key-1"));
  JournalRecord start;
  start.type = JournalRecordType::kStart;
  start.job_id = 3;
  in.push_back(start);
  JournalRecord gate;
  gate.type = JournalRecordType::kGate;
  gate.job_id = 3;
  gate.stages = 17;
  in.push_back(gate);
  JournalRecord done;
  done.type = JournalRecordType::kDone;
  done.job_id = 3;
  done.digest = "00aabbcc";
  done.lines = {"result line 1", "result line 2"};
  in.push_back(done);
  JournalRecord fail;
  fail.type = JournalRecordType::kFail;
  fail.job_id = 4;
  fail.error = "device out of memory";
  in.push_back(fail);
  JournalRecord cancel;
  cancel.type = JournalRecordType::kCancel;
  cancel.job_id = 5;
  cancel.error = "cancelled at gate";
  in.push_back(cancel);

  std::string bytes;
  for (const JournalRecord& rec : in) bytes += encode_journal_record(rec);
  const JournalReplay replay = decode_journal(bytes);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.bytes_consumed, bytes.size());
  ASSERT_EQ(replay.records.size(), in.size());
  EXPECT_EQ(replay.records[0].tenant, "alice");
  EXPECT_EQ(replay.records[0].dedup, "key-1");
  EXPECT_EQ(replay.records[0].spec_tokens, spec.to_tokens());
  EXPECT_EQ(replay.records[0].job_id, 3);
  EXPECT_EQ(replay.records[1].type, JournalRecordType::kStart);
  EXPECT_EQ(replay.records[2].stages, 17);
  EXPECT_EQ(replay.records[3].digest, "00aabbcc");
  EXPECT_EQ(replay.records[3].lines,
            (std::vector<std::string>{"result line 1", "result line 2"}));
  EXPECT_EQ(replay.records[4].error, "device out of memory");
  EXPECT_EQ(replay.records[5].type, JournalRecordType::kCancel);

  // The spec tokens stored in the journal parse back to the same spec.
  const JobSpec parsed = parse_job_spec_tokens(replay.records[0].spec_tokens);
  EXPECT_EQ(parsed.app, spec.app);
  EXPECT_EQ(parsed.iterations, spec.iterations);
  EXPECT_EQ(parsed.seed, spec.seed);
}

TEST(JournalCodec, SpecTokensWrittenBeforeTheFieldVisitorStillReplay) {
  // SUBMIT records as the hand-written to_tokens() stored them, before the
  // spec's keys were listed once in visit_job_spec_fields: every field off
  // its default, and a checkpointed job that left the interval at its
  // default (then 0, read as 1; now 1 itself).
  JobSpec every;
  every.app = "stencil";
  every.testbed = "bigred2";
  every.policy = "adaptive";
  every.nodes = 3;
  every.gpus = 2;
  every.points = 777;
  every.dims = 9;
  every.clusters = 5;
  every.iterations = 7;
  every.rows = 65;
  every.cols = 33;
  every.functional = true;
  every.gpu_only = true;
  every.cpu_fraction = 0.25;
  every.seed = 5;
  every.pipeline_depth = 2;
  every.fault_spec = "slow_node:node1:x2";
  every.fault_seed = 7;
  every.checkpoint_every = 3;
  every.checkpoint_dir = "/tmp/ck";
  every.resume = true;
  every.gpu_mem_bytes = 1048576;
  JobSpec interval_default;
  interval_default.functional = true;
  interval_default.checkpoint_dir = "/tmp/ck";
  const std::pair<std::string, JobSpec> stored[] = {
      {"app=stencil testbed=bigred2 policy=adaptive nodes=3 gpus=2 "
       "points=777 dims=9 clusters=5 iterations=7 rows=65 cols=33 "
       "functional=1 gpu_only=1 cpu_fraction=0.250000 seed=5 "
       "pipeline_depth=2 fault_spec=slow_node:node1:x2 fault_seed=7 "
       "checkpoint_every=3 checkpoint_dir=/tmp/ck resume=1 "
       "gpu_mem_bytes=1048576",
       every},
      {"functional=1 checkpoint_dir=/tmp/ck", interval_default},
  };
  for (const auto& [tokens, spec] : stored) {
    JournalRecord rec;
    rec.type = JournalRecordType::kSubmit;
    rec.job_id = 1;
    rec.tenant = "alice";
    rec.spec_tokens = tokens;
    const JournalReplay replay = decode_journal(encode_journal_record(rec));
    ASSERT_EQ(replay.records.size(), 1u);
    const JobSpec parsed = parse_job_spec_tokens(replay.records[0].spec_tokens);
    EXPECT_EQ(parsed, spec) << tokens;
    EXPECT_NO_THROW(parsed.validate()) << tokens;
    // Today's writer stores the same bytes.
    EXPECT_EQ(spec.to_tokens(), tokens);
  }
}

TEST(JournalCodec, TornTailStopsCleanlyAtEveryTruncation) {
  std::vector<JournalRecord> in;
  in.push_back(submit_record(1, "a", small_cmeans(3)));
  JournalRecord start;
  start.type = JournalRecordType::kStart;
  start.job_id = 1;
  in.push_back(start);
  const std::string first = encode_journal_record(in[0]);
  std::string bytes = first + encode_journal_record(in[1]);

  // Every proper prefix decodes only the records that are fully durable;
  // a mid-record cut is a torn tail, never an exception.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const JournalReplay replay = decode_journal(bytes.substr(0, cut));
    const std::size_t expect_records = cut < first.size() ? 0u : 1u;
    EXPECT_EQ(replay.records.size(), expect_records) << "cut=" << cut;
    if (cut != 0 && cut != first.size()) {
      EXPECT_TRUE(replay.torn_tail) << "cut=" << cut;
    }
  }

  // A flipped payload byte fails the checksum and stops the replay there.
  std::string corrupt = bytes;
  corrupt[first.size() - 1] ^= 0x5a;  // last payload byte of record 1
  const JournalReplay replay = decode_journal(corrupt);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.records.size(), 0u);
}

// A DONE frame with a valid checksum (it is no MAC: anyone can reseal a
// frame) that claims 2^32 - 1 result lines but holds none must end the
// replay as a torn tail, not throw std::bad_alloc out of the decoder.
TEST(JournalCodec, ImpossibleLineCountIsATornTail) {
  JournalRecord start;
  start.type = JournalRecordType::kStart;
  start.job_id = 7;
  JournalRecord done;
  done.type = JournalRecordType::kDone;
  done.job_id = 7;
  done.digest = "0123456789abcdef";
  std::string frame = encode_journal_record(done);
  constexpr std::size_t kHeader = 24;  // magic, version, length, checksum
  ASSERT_EQ(frame.size(), 57u);
  for (std::size_t i = frame.size() - 4; i < frame.size(); ++i) frame[i] = '\xff';
  const std::uint64_t sum = ckpt::fnv1a64(std::string_view(frame).substr(kHeader));
  for (std::size_t i = 0; i < 8; ++i) {
    frame[16 + i] = static_cast<char>(sum >> (8 * i));
  }
  const std::string first = encode_journal_record(start);
  JournalReplay replay;
  ASSERT_NO_THROW(replay = decode_journal(first + frame));
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].type, JournalRecordType::kStart);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.bytes_consumed, first.size());
}

TEST(Journal, AppendsSurviveAcrossIncarnations) {
  const fs::path dir = fresh_dir("svc_journal_reopen");
  Journal::Config cfg;
  cfg.path = (dir / "journal.wal").string();
  {
    Journal journal(cfg);
    EXPECT_TRUE(journal.append_durable(submit_record(1, "a", small_cmeans(3))));
    JournalRecord gate;
    gate.type = JournalRecordType::kGate;
    gate.job_id = 1;
    gate.stages = 2;
    EXPECT_TRUE(journal.append_async(gate));
    journal.flush();
    EXPECT_EQ(journal.records_appended(), 2u);
    EXPECT_EQ(journal.records_shed(), 0u);
    // Replay sees this incarnation's own flushed records.
    EXPECT_EQ(journal.replay().records.size(), 2u);
  }
  // A second incarnation appends after the first's records.
  {
    Journal journal(cfg);
    EXPECT_EQ(journal.replay().records.size(), 2u);
    JournalRecord done;
    done.type = JournalRecordType::kDone;
    done.job_id = 1;
    done.digest = "ff";
    EXPECT_TRUE(journal.append_durable(done));
  }
  const JournalReplay replay = read_journal(cfg.path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2].digest, "ff");
}

TEST(Journal, SaturatedQueueShedsInsteadOfBlocking) {
  const fs::path dir = fresh_dir("svc_journal_shed");
  Journal::Config cfg;
  cfg.path = (dir / "journal.wal").string();
  cfg.max_pending = 2;
  Journal journal(cfg);
  journal.pause_flush(true);
  JournalRecord gate;
  gate.type = JournalRecordType::kGate;
  gate.job_id = 1;
  EXPECT_TRUE(journal.append_async(gate));
  EXPECT_TRUE(journal.append_async(gate));
  // Queue is at the bound: both flavours shed, nobody wedges.
  EXPECT_FALSE(journal.append_async(gate));
  EXPECT_FALSE(journal.append_durable(submit_record(1, "a", small_cmeans(3))));
  EXPECT_EQ(journal.records_shed(), 2u);
  journal.pause_flush(false);
  journal.flush();
  EXPECT_EQ(journal.records_appended(), 2u);
  // Drained: appends (durable ones included) work again.
  EXPECT_TRUE(journal.append_durable(submit_record(1, "a", small_cmeans(3))));
}

// -------------------------------------------------------- client primitives

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndSeeded) {
  RetryPolicy policy;
  policy.retries = 6;
  policy.base_ms = 50;
  policy.cap_ms = 400;
  policy.seed = 9;
  int expected_raw = 50;
  for (int attempt = 1; attempt <= policy.retries; ++attempt) {
    const int a = backoff_ms(policy, attempt);
    const int b = backoff_ms(policy, attempt);
    EXPECT_EQ(a, b) << "same (policy, attempt) must give the same sleep";
    EXPECT_GE(a, expected_raw / 2) << "attempt " << attempt;
    EXPECT_LE(a, expected_raw) << "attempt " << attempt;
    expected_raw = std::min(expected_raw * 2, policy.cap_ms);
  }
  // The printed schedule is the same function, so it matches backoff_ms.
  const std::string schedule = backoff_schedule(policy);
  EXPECT_EQ(schedule.find(std::to_string(backoff_ms(policy, 1)) + "ms"), 0u)
      << schedule;
  RetryPolicy other = policy;
  other.seed = 10;
  bool any_differs = false;
  for (int attempt = 1; attempt <= policy.retries; ++attempt) {
    any_differs |= backoff_ms(policy, attempt) != backoff_ms(other, attempt);
  }
  EXPECT_TRUE(any_differs) << "different seeds should not stampede in step";
}

TEST(RetryPolicy, RetryAfterHeaderParses) {
  EXPECT_EQ(retry_after_ms("RETRY-AFTER 250 code=queue_full busy\n"), 250);
  EXPECT_EQ(retry_after_ms("OK id=3\n"), -1);
  EXPECT_EQ(retry_after_ms("ERR code=bad_request nope\n"), -1);
  EXPECT_EQ(retry_after_ms("RETRY-AFTER nope\n"), -1);
}

// ----------------------------------------------------- idempotent submission

TEST(JobServer, DedupResubmitReturnsTheSameJobOnce) {
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  const JobSpec spec = small_cmeans(4);
  auto first = server.submit("a", spec, "retry-key");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.deduped);
  // The classic lost-reply retry: same tenant, same key.
  auto replay = server.submit("a", spec, "retry-key");
  EXPECT_TRUE(replay.ok());
  EXPECT_TRUE(replay.deduped);
  EXPECT_EQ(replay.job_id, first.job_id);
  // No double admission: one job, one quota charge.
  EXPECT_EQ(server.tenant_account("a").jobs_submitted, 1u);
  EXPECT_EQ(server.tenant_account("a").queued, 1);
  EXPECT_NE(server.metrics_json().find("\"svc.submit_dedup_hits\":1"),
            std::string::npos);
  // A different key is a different job; the key is scoped per tenant.
  auto other = server.submit("a", spec, "other-key");
  EXPECT_FALSE(other.deduped);
  EXPECT_NE(other.job_id, first.job_id);
  server.add_tenant("b", TenantQuota{});
  auto other_tenant = server.submit("b", spec, "retry-key");
  EXPECT_FALSE(other_tenant.deduped);
  EXPECT_NE(other_tenant.job_id, first.job_id);
  server.run_until_idle();
  // Replaying after completion still returns the (now terminal) job.
  auto late = server.submit("a", spec, "retry-key");
  EXPECT_TRUE(late.deduped);
  EXPECT_EQ(late.job_id, first.job_id);
  EXPECT_EQ(server.status(late.job_id).state, JobState::kDone);
}

// ------------------------------------------------------------ load shedding

TEST(JobServer, SaturatedJournalShedsSubmitsWithRetryAfter) {
  const fs::path dir = fresh_dir("svc_journal_busy");
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  jcfg.max_pending = 1;
  Journal journal(jcfg);
  JobServer server(server_cfg(1, 2, &journal));
  server.add_tenant("a", TenantQuota{});

  // Freeze the flusher and fill the queue so the durable SUBMIT append
  // must shed instead of blocking the client.
  journal.pause_flush(true);
  JournalRecord filler;
  filler.type = JournalRecordType::kGate;
  filler.job_id = 99;
  ASSERT_TRUE(journal.append_async(filler));
  auto shed = server.submit("a", small_cmeans(3));
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.decision.code, AdmitCode::kJournalBusy);
  EXPECT_GT(shed.retry_after_ms, 0);
  EXPECT_TRUE(admit_code_retryable(shed.decision.code));
  EXPECT_NE(server.metrics_json().find("\"svc.journal_shed\":1"),
            std::string::npos);

  // The protocol surfaces it as RETRY-AFTER, not a hard ERR.
  bool shutdown = false;
  const std::string resp = handle_request(
      server, "SUBMIT tenant=a " + small_cmeans(3).to_tokens(), &shutdown);
  EXPECT_EQ(resp.rfind("RETRY-AFTER ", 0), 0u) << resp;
  EXPECT_NE(resp.find("code=journal_busy"), std::string::npos) << resp;
  EXPECT_GT(retry_after_ms(resp), 0);

  // Once the journal drains, the same submit is accepted — and no job id
  // was burned by the shed attempts (ids stay dense).
  journal.pause_flush(false);
  journal.flush();
  auto ok = server.submit("a", small_cmeans(3));
  ASSERT_TRUE(ok.ok()) << ok.decision.message;
  EXPECT_EQ(ok.job_id, 1);
  server.run_until_idle();
  EXPECT_EQ(server.status(ok.job_id).state, JobState::kDone);
}

// ---------------------------------------------------------------- recovery

TEST(JobServer, RecoverReAdmitsQueuedJobsInAdmissionOrder) {
  const fs::path dir = fresh_dir("svc_recover_queued");
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  const JobSpec spec_a = small_cmeans(4);
  JobSpec spec_b = small_cmeans(3);
  spec_b.seed = 21;
  {
    // Incarnation 1: admit two jobs but never start the pump — the daemon
    // "crashes" with both still queued. The destructor's shutdown
    // cancellations are not journaled, so the journal keeps them incomplete.
    Journal journal(jcfg);
    JobServer server(server_cfg(1, 2, &journal));
    server.add_tenant("a", TenantQuota{});
    ASSERT_TRUE(server.submit("a", spec_a, "job-a").ok());
    ASSERT_TRUE(server.submit("a", spec_b).ok());
  }
  // Incarnation 2 replays the journal and re-runs both to completion.
  Journal journal(jcfg);
  JobServer server(server_cfg(1, 2, &journal));
  server.add_tenant("a", TenantQuota{});
  const auto stats = server.recover();
  EXPECT_EQ(stats.journal_records, 2);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.jobs_recovered, 2);
  EXPECT_EQ(stats.jobs_restored, 0);
  EXPECT_EQ(stats.jobs_failed, 0);
  EXPECT_EQ(server.tenant_account("a").queued, 2);

  // Original ids, original order, recovered flag set.
  const JobStatus qa = server.status(1);
  const JobStatus qb = server.status(2);
  EXPECT_TRUE(qa.recovered);
  EXPECT_TRUE(qb.recovered);
  EXPECT_EQ(qa.state, JobState::kQueued);

  // The dedup map survives the crash: a client retrying its SUBMIT after
  // the restart still gets job 1, not a duplicate.
  auto replay = server.submit("a", spec_a, "job-a");
  EXPECT_TRUE(replay.deduped);
  EXPECT_EQ(replay.job_id, 1);

  server.run_until_idle();
  EXPECT_EQ(server.status(1).digest, run_single_shot(spec_a).digest);
  EXPECT_EQ(server.status(2).digest, run_single_shot(spec_b).digest);
  // New submissions continue after the recovered id range.
  auto fresh = server.submit("a", small_cmeans(2));
  EXPECT_EQ(fresh.job_id, 3);
  server.run_until_idle();
}

TEST(JobServer, RecoverResumesStartedJobFromItsCheckpoint) {
  const fs::path dir = fresh_dir("svc_recover_resume");
  const fs::path ckpt_dir = dir / "ckpt";
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  // Stencil, not cmeans: a functional cmeans run converges after a
  // handful of iterations, but this test needs a job long enough to crash
  // mid-flight with checkpoints behind it and plenty of work ahead —
  // Jacobi relaxation of a random grid keeps iterating far past 200.
  JobSpec base;
  base.app = "stencil";
  base.nodes = 1;
  base.dims = 24;   // grid rows
  base.cols = 24;   // grid cols
  base.iterations = 200;
  base.functional = true;
  base.seed = 7;
  JobSpec spec = base;
  spec.checkpoint_every = 2;
  spec.checkpoint_dir = ckpt_dir.string();
  const LaunchOutcome oracle = run_single_shot(base);

  // Baseline: the full run's stage count on an uninterrupted server.
  int full_stages = 0;
  {
    JobServer server(server_cfg(1, 2));
    server.add_tenant("a", TenantQuota{});
    auto res = server.submit("a", base);
    ASSERT_TRUE(res.ok());
    server.run_until_idle();
    full_stages = server.status(res.job_id).stages;
    ASSERT_GT(full_stages, base.iterations);
  }

  {
    // Incarnation 1: run the job past several checkpoints, then crash
    // (destructor — the shutdown cancel is not journaled).
    Journal journal(jcfg);
    JobServer server(server_cfg(1, 2, &journal));
    server.add_tenant("a", TenantQuota{});
    server.start();
    auto res = server.submit("a", spec);
    ASSERT_TRUE(res.ok()) << res.decision.message;
    ASSERT_TRUE(server.wait_for_stages(res.job_id, 12));
    server.stop();
  }
  ASSERT_TRUE(ckpt::has_snapshot(ckpt::FileCheckpointStore(ckpt_dir.string()),
                                 "stencil"));

  // Incarnation 2: replay, resume from the latest snapshot — NOT from
  // iteration 0 — and still produce the oracle digest.
  Journal journal(jcfg);
  JobServer server(server_cfg(1, 2, &journal));
  server.add_tenant("a", TenantQuota{});
  const auto stats = server.recover();
  ASSERT_EQ(stats.jobs_recovered, 1);
  EXPECT_EQ(stats.jobs_resumed, 1);
  EXPECT_TRUE(server.status(1).spec.resume);
  server.run_until_idle();
  const JobStatus done = server.status(1);
  EXPECT_EQ(done.state, JobState::kDone) << done.error;
  EXPECT_EQ(done.digest, oracle.digest);
  EXPECT_EQ(done.lines, oracle.lines);
  EXPECT_TRUE(done.recovered);
  // The iteration counter proves the resume: far fewer stages than a
  // from-scratch run (we passed >= 12 gates before the crash).
  EXPECT_LT(done.stages, full_stages - 8)
      << "recovered run re-ran from iteration 0 instead of resuming";
  EXPECT_NE(server.metrics_json().find("\"svc.jobs_resumed_from_ckpt\":1"),
            std::string::npos);
}

// The in-process crash matrix: a completed run's journal, truncated to
// every record-count prefix, must always recover to the oracle digest.
TEST(JobServer, CrashMatrixEveryJournalPrefixRecoversToTheOracle) {
  const fs::path dir = fresh_dir("svc_crash_matrix");
  const fs::path ckpt_dir = dir / "ckpt";
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  JobSpec spec = small_cmeans(6);
  spec.checkpoint_every = 2;
  spec.checkpoint_dir = ckpt_dir.string();
  const LaunchOutcome oracle = run_single_shot(small_cmeans(6));

  {
    Journal journal(jcfg);
    JobServer::Config cfg = server_cfg(1, 2, &journal);
    cfg.journal_gate_every = 2;
    JobServer server(cfg);
    server.add_tenant("a", TenantQuota{});
    ASSERT_TRUE(server.submit("a", spec).ok());
    server.run_until_idle();
    ASSERT_EQ(server.status(1).digest, oracle.digest);
  }
  const JournalReplay full = read_journal(jcfg.path);
  ASSERT_FALSE(full.torn_tail);
  // SUBMIT, START, a few GATEs, DONE.
  ASSERT_GE(full.records.size(), 4u);
  EXPECT_EQ(full.records.front().type, JournalRecordType::kSubmit);
  EXPECT_EQ(full.records.back().type, JournalRecordType::kDone);

  for (std::size_t k = 1; k <= full.records.size(); ++k) {
    SCOPED_TRACE("crash after record " + std::to_string(k) + " (" +
                 journal_record_name(full.records[k - 1].type) + ")");
    const fs::path cell = dir / ("cell_" + std::to_string(k));
    fs::create_directories(cell);
    Journal::Config cell_cfg;
    cell_cfg.path = (cell / "journal.wal").string();
    write_journal_file(cell_cfg.path,
                       {full.records.begin(),
                        full.records.begin() + static_cast<long>(k)});
    Journal journal(cell_cfg);
    JobServer server(server_cfg(1, 2, &journal));
    server.add_tenant("a", TenantQuota{});
    const auto stats = server.recover();
    if (k == full.records.size()) {
      // The DONE record made it to disk: restored as history, not re-run.
      EXPECT_EQ(stats.jobs_restored, 1);
      EXPECT_EQ(stats.jobs_recovered, 0);
    } else {
      EXPECT_EQ(stats.jobs_recovered, 1);
    }
    server.run_until_idle();
    const JobStatus done = server.status(1);
    EXPECT_EQ(done.state, JobState::kDone) << done.error;
    EXPECT_EQ(done.digest, oracle.digest);
    EXPECT_EQ(done.lines, oracle.lines);
  }

  // A torn tail (garbage after a valid prefix) recovers identically.
  const fs::path torn = dir / "cell_torn";
  fs::create_directories(torn);
  Journal::Config torn_cfg;
  torn_cfg.path = (torn / "journal.wal").string();
  write_journal_file(torn_cfg.path,
                     {full.records.begin(), full.records.begin() + 2});
  {
    std::ofstream out(torn_cfg.path, std::ios::binary | std::ios::app);
    out << "PRSJ\x01garbage-half-record";
  }
  Journal journal(torn_cfg);
  JobServer server(server_cfg(1, 2, &journal));
  server.add_tenant("a", TenantQuota{});
  const auto stats = server.recover();
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.jobs_recovered, 1);
  server.run_until_idle();
  EXPECT_EQ(server.status(1).digest, oracle.digest);
}

TEST(JobServer, RecoverRestoresTerminalHistoryWithoutAccounting) {
  const fs::path dir = fresh_dir("svc_recover_history");
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  std::vector<JournalRecord> records;
  records.push_back(submit_record(1, "a", small_cmeans(3)));
  JournalRecord done;
  done.type = JournalRecordType::kDone;
  done.job_id = 1;
  done.digest = "deadbeef";
  done.lines = {"line one"};
  records.push_back(done);
  records.push_back(submit_record(2, "a", small_cmeans(3)));
  JournalRecord fail;
  fail.type = JournalRecordType::kFail;
  fail.job_id = 2;
  fail.error = "device out of memory";
  records.push_back(fail);
  write_journal_file(jcfg.path, records);

  Journal journal(jcfg);
  JobServer server(server_cfg(1, 2, &journal));
  server.add_tenant("a", TenantQuota{});
  const auto stats = server.recover();
  EXPECT_EQ(stats.jobs_restored, 2);
  EXPECT_EQ(stats.jobs_recovered, 0);
  const JobStatus h1 = server.status(1);
  EXPECT_EQ(h1.state, JobState::kDone);
  EXPECT_EQ(h1.digest, "deadbeef");
  EXPECT_EQ(h1.lines, (std::vector<std::string>{"line one"}));
  const JobStatus h2 = server.status(2);
  EXPECT_EQ(h2.state, JobState::kFailed);
  EXPECT_EQ(h2.error, "device out of memory");
  // History restoration charges nothing: this incarnation never ran them.
  EXPECT_EQ(server.tenant_account("a").queued, 0);
  EXPECT_EQ(server.tenant_account("a").jobs_submitted, 0u);
  EXPECT_EQ(server.tenant_account("a").vgpus_in_use, 0);
  server.run_until_idle();  // nothing to do; must not wedge
}

TEST(JobServer, RecoverFailsAJournaledEngineSpecAsVersionDrift) {
  // A spec journaled with the engine= key no longer parses: recovery fails
  // that job, as it fails any spec from another build, and still re-admits
  // the jobs around it.
  const fs::path dir = fresh_dir("svc_recover_engine");
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  JournalRecord with_engine = submit_record(1, "a", small_cmeans(3));
  with_engine.spec_tokens += " engine=graph";
  write_journal_file(jcfg.path,
                     {with_engine, submit_record(2, "a", small_cmeans(3))});
  Journal journal(jcfg);
  JobServer server(server_cfg(1, 2, &journal));
  server.add_tenant("a", TenantQuota{});
  const auto stats = server.recover();
  EXPECT_EQ(stats.jobs_failed, 1);
  EXPECT_EQ(stats.jobs_recovered, 1);
  const JobStatus drifted = server.status(1);
  EXPECT_EQ(drifted.state, JobState::kFailed);
  EXPECT_NE(drifted.error.find("unknown job field: engine"), std::string::npos)
      << drifted.error;
  server.run_until_idle();
  EXPECT_EQ(server.status(2).state, JobState::kDone);
  EXPECT_EQ(server.status(2).digest,
            run_single_shot(small_cmeans(3)).digest);
}

TEST(JobServer, CancelDuringRecoveryResolvesCleanly) {
  const fs::path dir = fresh_dir("svc_recover_cancel");
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  write_journal_file(jcfg.path, {submit_record(1, "a", small_cmeans(500)),
                                 submit_record(2, "a", small_cmeans(3))});
  Journal journal(jcfg);
  JobServer server(server_cfg(1, 2, &journal));
  server.add_tenant("a", TenantQuota{});
  ASSERT_EQ(server.recover().jobs_recovered, 2);
  // Cancel a re-admitted job after replay, before the pump ever runs it.
  EXPECT_TRUE(server.cancel(1));
  EXPECT_EQ(server.status(1).state, JobState::kCancelled);
  server.run_until_idle();
  EXPECT_EQ(server.status(1).stages, 0) << "cancelled job must never run";
  EXPECT_EQ(server.status(2).state, JobState::kDone);
  EXPECT_EQ(server.pool().active_leases(), 0);
  EXPECT_EQ(server.tenant_account("a").jobs_cancelled, 1u);
  // The cancel was journaled: a third incarnation sees it as history.
  journal.flush();
  const JournalReplay replay = read_journal(jcfg.path);
  int cancels = 0;
  for (const JournalRecord& rec : replay.records) {
    cancels += rec.type == JournalRecordType::kCancel ? 1 : 0;
  }
  EXPECT_EQ(cancels, 1);
}

TEST(JobServer, RecoverFailsImpossibleJobsDeterministically) {
  const fs::path dir = fresh_dir("svc_recover_impossible");
  Journal::Config jcfg;
  jcfg.path = (dir / "journal.wal").string();
  JobSpec wide = small_cmeans(3);
  wide.nodes = 8;  // 8 vGPUs — more than the restarted pool has
  write_journal_file(jcfg.path, {submit_record(1, "ghost", small_cmeans(3)),
                                 submit_record(2, "a", wide),
                                 submit_record(3, "a", small_cmeans(3))});
  Journal journal(jcfg);
  JobServer server(server_cfg(1, 2, &journal));  // capacity 2
  server.add_tenant("a", TenantQuota{});
  const auto stats = server.recover();
  EXPECT_EQ(stats.jobs_failed, 2);
  EXPECT_EQ(stats.jobs_recovered, 1);
  EXPECT_EQ(server.status(1).state, JobState::kFailed);
  EXPECT_NE(server.status(1).error.find("not registered"), std::string::npos);
  EXPECT_EQ(server.status(2).state, JobState::kFailed);
  EXPECT_NE(server.status(2).error.find("pool too small"), std::string::npos);
  server.run_until_idle();
  EXPECT_EQ(server.status(3).state, JobState::kDone);
}

// --------------------------------------------------------- resilient client

TEST(ResilientClient, FailsFastWithConnectFailedWhenServerIsAbsent) {
  RetryPolicy policy;  // retries = 0: fail fast
  ResilientClient client("/tmp/prs_no_such_server.sock", policy);
  EXPECT_THROW(client.request("PING"), ConnectFailed);
}

TEST(ResilientClient, HonorsRetryAfterAndSucceeds) {
  const std::string path =
      "/tmp/prs_retry_after_" + std::to_string(::getpid()) + ".sock";
  std::atomic<int> calls{0};
  SocketServer sock(path, [&calls](const std::string& line, bool*) {
    if (line == "PING" && calls.fetch_add(1) == 0) {
      return format_retry_after(10, "queue_full", "try later");
    }
    return std::string("OK pong\n");
  });
  RetryPolicy policy;
  policy.retries = 3;
  policy.base_ms = 5;
  ResilientClient client(path, policy);
  std::vector<std::string> reasons;
  client.set_retry_observer([&reasons](int, int, const std::string& why) {
    reasons.push_back(why);
  });
  EXPECT_EQ(client.request("PING"), "OK pong\n");
  EXPECT_EQ(calls.load(), 2);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_NE(reasons[0].find("RETRY-AFTER"), std::string::npos);
  sock.stop();
}

TEST(ResilientClient, ReconnectsAcrossAServerRestart) {
  const std::string path =
      "/tmp/prs_restart_" + std::to_string(::getpid()) + ".sock";
  auto first = std::make_unique<SocketServer>(
      path, [](const std::string&, bool*) {
        return std::string("OK generation=1\n");
      });
  RetryPolicy policy;
  policy.retries = 40;
  policy.base_ms = 10;
  policy.cap_ms = 50;
  ResilientClient client(path, policy);
  EXPECT_EQ(client.request("PING"), "OK generation=1\n");

  // Take the server down; bring a second generation up shortly after. The
  // client's PING must ride the outage on its backoff budget.
  first->stop();
  first.reset();
  std::unique_ptr<SocketServer> second;
  std::thread reviver([&path, &second] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    second = std::make_unique<SocketServer>(
        path, [](const std::string&, bool*) {
          return std::string("OK generation=2\n");
        });
  });
  const std::string resp = client.request("PING");
  reviver.join();
  EXPECT_EQ(resp, "OK generation=2\n");
  EXPECT_GE(client.reconnects(), 1);
  second->stop();
}

TEST(ResilientClient, WaitJobSurvivesRequestTimeouts) {
  const std::string path =
      "/tmp/prs_waitjob_" + std::to_string(::getpid()) + ".sock";
  JobServer server(server_cfg(1, 2));
  server.add_tenant("a", TenantQuota{});
  server.start();
  SocketServer sock(path, [&server](const std::string& line, bool* sd) {
    return handle_request(server, line, sd);
  });
  auto res = server.submit("a", small_cmeans(200));
  ASSERT_TRUE(res.ok());
  RetryPolicy policy;
  policy.retries = 2;
  policy.base_ms = 5;
  policy.timeout_ms = 20;  // far shorter than the job; WAIT must re-issue
  ResilientClient client(path, policy);
  const std::string done = client.wait_job(res.job_id);
  EXPECT_NE(done.find("state=DONE"), std::string::npos) << done;
  sock.stop();
  server.stop();
}

}  // namespace
}  // namespace prs::svc
