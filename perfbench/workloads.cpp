#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "apps/cmeans.hpp"
#include "apps/dgemm.hpp"
#include "apps/wordcount.hpp"
#include "ceilings.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "core/schedule_policy.hpp"
#include "data/dataset.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/blas.hpp"
#include "simtime/simulator.hpp"
#include "svc/journal.hpp"
#include "svc/launcher.hpp"
#include "svc/server.hpp"

namespace perfbench {
namespace {

using namespace prs;
using Clock = std::chrono::steady_clock;

constexpr int kNodes = 4;  // functional workloads: 4 fat nodes, 1 GPU each

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : percentile(v, 50.0);
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

std::string hex_digest(const ckpt::Writer& w) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(ckpt::fnv1a64(w.bytes())));
  return buf;
}

exec::ThreadPool& pool() { return exec::ThreadPool::instance(); }

/// Resizes the pool and starts its workers (they otherwise start lazily
/// inside the first timed region).
void spin_up_pool(int threads) {
  pool().configure(threads);
  exec::parallel_for(0, static_cast<std::size_t>(threads) * 4, 1,
                     [](std::size_t, std::size_t) {});
}

/// Median wall time of an empty parallel region (submit + wake + join).
double region_round_trip_us(int reps) {
  const auto lanes = static_cast<std::size_t>(pool().threads());
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    exec::parallel_for(0, lanes, 1, [](std::size_t, std::size_t) {});
    us.push_back(since(t0) * 1e6);
  }
  return median(us);
}

/// Runs `one()` (which returns the seconds it took) back to back until the
/// next call would overrun `budget_s`, and at least `min_calls` times.
template <typename One>
int run_for(double budget_s, int min_calls, One one) {
  const auto t0 = Clock::now();
  double last = 0.0;
  int calls = 0;
  while (calls < min_calls || since(t0) + last <= budget_s) {
    last = one();
    ++calls;
  }
  return calls;
}

/// Runs `setup(round)` (which returns the seconds it took) once when
/// `once`, else at least 3 times and more while the next fits in about two
/// seconds, so a cheap set-up still reports a steady median.
template <typename Setup>
void repeat_setup(bool once, Setup setup) {
  constexpr int kMin = 3, kMax = 100;
  constexpr double kBudgetS = 2.0;
  const auto t0 = Clock::now();
  double last = 0.0;
  for (int round = 0; round < (once ? 1 : kMax); ++round) {
    if (round >= kMin && since(t0) + last > kBudgetS) break;
    last = setup(round);
  }
}

/// Counts attempted jobs and those whose digest or virtual time disagrees
/// with the reference.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: mismatch: %s\n", what);
    }
  }
};

struct PoolDelta {
  double regions = 0.0, chunks = 0.0, stolen = 0.0, occupancy = 0.0;
};

PoolDelta pool_delta(const exec::PoolStats& a, const exec::PoolStats& b) {
  PoolDelta d;
  d.regions = static_cast<double>(b.jobs - a.jobs);
  d.chunks = static_cast<double>(b.chunks - a.chunks);
  d.stolen = static_cast<double>(b.stolen_chunks - a.stolen_chunks);
  const auto slots = b.lane_slots - a.lane_slots;
  d.occupancy = slots > 0 ? static_cast<double>(b.lane_engagements -
                                                a.lane_engagements) /
                                static_cast<double>(slots)
                          : 0.0;
  return d;
}

/// Layer counters read around one job.
struct LayerSample {
  PoolDelta pool;
  double minor_faults = 0.0;
  double events = 0.0;
};

void add_layer_medians(const std::vector<LayerSample>& xs, Result& res) {
  std::vector<double> regions, chunks, stolen, occ, faults;
  for (const auto& x : xs) {
    regions.push_back(x.pool.regions);
    chunks.push_back(x.pool.chunks);
    stolen.push_back(x.pool.stolen);
    occ.push_back(x.pool.occupancy);
    faults.push_back(x.minor_faults);
  }
  res.layers["exec.regions"] = median(regions);
  res.layers["exec.chunks"] = median(chunks);
  res.layers["exec.stolen"] = median(stolen);
  res.layers["exec.occupancy"] = median(occ);
  res.layers["proc.minor_faults"] = median(faults);
}

void add_core_counts(const core::JobStats& s, Result& res) {
  res.layers["core.map_tasks"] = static_cast<double>(s.map_tasks);
  res.layers["core.pairs"] = static_cast<double>(s.intermediate_pairs);
  res.layers["core.network_bytes"] = s.network_bytes;
  res.layers["core.pcie_bytes"] = s.pcie_bytes;
  res.layers["core.virtual_s"] = s.elapsed;
}

void add_ceilings(const HostCeilings& c, Result& res) {
  res.layers["host.peak_gflops"] = c.peak_gflops;
  res.layers["host.mem_gbs"] = c.mem_gbs;
  res.layers["host.llc_mb"] = c.llc_mb;
  res.layers["host.stream_mb"] = c.stream_mb;
}

// ---------------------------------------------------------------------------
// Functional workloads: one app, real kernels, one job at a time.

/// Node hardware and job configuration of a functional prs_run job with
/// the default testbed and static policy.
struct JobEnv {
  core::NodeConfig node;
  core::JobConfig cfg;
  std::unique_ptr<core::SchedulePolicy> policy;
};

JobEnv functional_env() {
  svc::JobSpec spec;
  spec.functional = true;
  JobEnv env;
  env.node = spec.node_config();
  env.cfg = spec.job_config();
  env.policy = core::make_policy(spec.policy);
  env.cfg.policy = env.policy.get();
  return env;
}

struct MapCombine {
  double map_ms = 0.0;
  double combine_ms = 0.0;
};

/// The input slices one pass of the job maps: the runner is driven with
/// map functions that only record the slices they are given.
template <typename K, typename V>
std::vector<core::InputSlice> job_blocks(core::MapReduceSpec<K, V> spec,
                                         const JobEnv& env,
                                         std::size_t items) {
  auto blocks = std::make_shared<std::vector<core::InputSlice>>();
  auto mu = std::make_shared<std::mutex>();
  spec.cpu_map = [blocks, mu](const core::InputSlice& s,
                              core::Emitter<K, V>&) {
    std::lock_guard<std::mutex> lk(*mu);
    blocks->push_back(s);
  };
  spec.gpu_map = spec.cpu_map;
  sim::Simulator sim;
  core::Cluster cluster(sim, kNodes, env.node);
  core::run_job(cluster, spec, env.cfg, items);
  return *blocks;
}

/// Calls the spec's cpu_map on the job's blocks (one map pass), then
/// merges the emitted pairs into one ordered map with the spec's combiner
/// (what the runner's node-local combine does).
template <typename K, typename V>
MapCombine time_map_combine(const core::MapReduceSpec<K, V>& spec,
                            const JobEnv& env, std::size_t items,
                            SpanRecorder& rec) {
  const std::vector<core::InputSlice> slices = job_blocks(spec, env, items);
  std::vector<core::Emitter<K, V>> emitted(slices.size());
  MapCombine out;
  const auto t0 = Clock::now();
  {
    Span s(rec, "apps.map");
    for (std::size_t i = 0; i < slices.size(); ++i) {
      spec.cpu_map(slices[i], emitted[i]);
    }
  }
  const auto t1 = Clock::now();
  {
    Span s(rec, "apps.combine");
    std::map<K, V> acc;
    for (auto& e : emitted) {
      for (auto& [k, v] : e.pairs()) {
        auto it = acc.find(k);
        if (it == acc.end()) {
          acc.emplace(std::move(k), std::move(v));
        } else {
          it->second = spec.combine(it->second, v);
        }
      }
    }
  }
  out.map_ms = seconds_between(t0, t1) * 1e3;
  out.combine_ms = since(t1) * 1e3;
  return out;
}

class App {
 public:
  virtual ~App() = default;
  /// Generates the job's inputs from `seed`.
  virtual void generate(std::uint64_t seed) = 0;
  /// Runs the job through the app's PRS entry point, keeping its result.
  virtual core::JobStats run(core::Cluster& cluster,
                             const core::JobConfig& cfg) = 0;
  /// Serializes the last result exactly as prs_run digests it.
  virtual void encode_result(ckpt::Writer& w) const = 0;
  virtual MapCombine map_combine(const JobEnv& env, SpanRecorder& rec) = 0;
  /// Operations and bytes of one map pass over the whole input, computed
  /// from the cost model and the array sizes (not measured traffic).
  virtual double map_flops() const = 0;
  virtual double map_bytes() const = 0;
  /// Wall ms of the app's dense kernel run alone; 0 when it has none.
  virtual double gemm_ms(SpanRecorder&) { return 0.0; }
};

class CmeansApp final : public App {
 public:
  explicit CmeansApp(bool smoke)
      : n_(smoke ? 4000 : 200000), d_(smoke ? 16 : 100) {
    params_.clusters = smoke ? 4 : 10;
    params_.max_iterations = smoke ? 3 : 10;
    params_.epsilon = 0.0;  // always run every iteration: fixed work per seed
  }

  void generate(std::uint64_t seed) override {
    Rng rng(seed);
    points_ = data::generate_blobs(rng, n_, d_, params_.clusters, 10.0, 1.0)
                  .points;
    params_.seed = seed;
  }

  core::JobStats run(core::Cluster& cluster,
                     const core::JobConfig& cfg) override {
    core::JobStats stats;
    result_ = apps::cmeans_prs(cluster, points_, params_, cfg, &stats);
    return stats;
  }

  void encode_result(ckpt::Writer& w) const override {
    ckpt::put_matrix(w, result_.centers);
    w.f64(result_.objective);
  }

  MapCombine map_combine(const JobEnv& env, SpanRecorder& rec) override {
    auto state = std::make_shared<apps::CmeansState>();
    state->points = &points_;
    state->centers =
        apps::initial_centers(points_, params_.clusters, params_.seed);
    state->fuzziness = params_.fuzziness;
    return time_map_combine(apps::cmeans_spec(state, params_, d_), env, n_,
                            rec);
  }

  double map_flops() const override {
    return apps::cmeans_flops_per_point(params_.clusters, d_) *
           static_cast<double>(n_);
  }
  double map_bytes() const override {
    return static_cast<double>(n_ * d_ * sizeof(double));
  }

 private:
  std::size_t n_, d_;
  apps::CmeansParams params_;
  linalg::MatrixD points_;
  apps::CmeansResult result_;
};

class DgemmApp final : public App {
 public:
  explicit DgemmApp(bool smoke)
      : m_(smoke ? 200 : 2000), k_(smoke ? 50 : 500), n_(smoke ? 200 : 2000) {}

  void generate(std::uint64_t seed) override {
    Rng rng(seed);
    a_ = data::random_matrix(rng, m_, k_);
    b_ = data::random_matrix(rng, k_, n_);
  }

  core::JobStats run(core::Cluster& cluster,
                     const core::JobConfig& cfg) override {
    core::JobStats stats;
    c_ = apps::dgemm_prs(cluster, a_, b_, cfg, &stats);
    return stats;
  }

  void encode_result(ckpt::Writer& w) const override {
    ckpt::put_matrix(w, c_);
  }

  MapCombine map_combine(const JobEnv& env, SpanRecorder& rec) override {
    auto state = std::make_shared<apps::DgemmState>();
    state->a = &a_;
    state->b = &b_;
    return time_map_combine(apps::dgemm_spec(state, k_, n_), env, m_, rec);
  }

  double map_flops() const override { return apps::dgemm_flops(m_, n_, k_); }
  double map_bytes() const override {
    return static_cast<double>((m_ * k_ + k_ * n_ + m_ * n_) * sizeof(double));
  }

  double gemm_ms(SpanRecorder& rec) override {
    linalg::MatrixD c(m_, n_, 0.0);
    const auto t0 = Clock::now();
    {
      Span s(rec, "linalg.gemm");
      linalg::gemm_blocked(1.0, a_, b_, 0.0, c);
    }
    return since(t0) * 1e3;
  }

 private:
  std::size_t m_, k_, n_;
  linalg::MatrixD a_, b_, c_;
};

class WordcountApp final : public App {
 public:
  explicit WordcountApp(bool smoke) : lines_(smoke ? 4000 : 400000) {}

  void generate(std::uint64_t seed) override {
    Rng rng(seed);
    corpus_ = std::make_shared<const apps::Corpus>(
        apps::generate_corpus(rng, lines_, 8, 5000));
    bytes_ = 0;
    for (const auto& line : *corpus_) bytes_ += line.size();
  }

  core::JobStats run(core::Cluster& cluster,
                     const core::JobConfig& cfg) override {
    core::JobStats stats;
    counts_ = apps::wordcount_prs(cluster, corpus_, cfg, &stats);
    return stats;
  }

  void encode_result(ckpt::Writer& w) const override {
    w.u64(counts_.size());
    for (const auto& [word, c] : counts_) {
      w.str(word);
      w.u64(static_cast<std::uint64_t>(c));
    }
  }

  MapCombine map_combine(const JobEnv& env, SpanRecorder& rec) override {
    return time_map_combine(apps::wordcount_spec(corpus_), env, lines_, rec);
  }

  // The cost model charges one operation per input byte.
  double map_flops() const override { return static_cast<double>(bytes_); }
  double map_bytes() const override { return static_cast<double>(bytes_); }

 private:
  std::size_t lines_;
  std::size_t bytes_ = 0;
  std::shared_ptr<const apps::Corpus> corpus_;
  std::map<std::string, long> counts_;
};

struct JobRecord {
  double wall_s = 0.0;  // app entry point + result digest
  std::string digest;
  std::size_t digest_bytes = 0;
  core::JobStats stats;
  LayerSample layer;
};

/// One job on a fresh simulator and cluster (as prs_run runs it); the
/// cluster is built outside the timed region.
JobRecord run_one(App& app, const JobEnv& env, SpanRecorder& rec, int job) {
  JobRecord r;
  sim::Simulator sim;
  std::optional<core::Cluster> cluster;
  {
    Span s(rec, "sim.cluster_build", job);
    cluster.emplace(sim, kNodes, env.node);
  }
  const exec::PoolStats p0 = pool().stats();
  const long f0 = self_usage().ru_minflt;
  const auto t0 = Clock::now();
  {
    Span whole(rec, "job", job);
    {
      Span s(rec, "apps.job", job);
      r.stats = app.run(*cluster, env.cfg);
    }
    Span s(rec, "ckpt.digest", job);
    ckpt::Writer w;
    app.encode_result(w);
    r.digest = hex_digest(w);
    r.digest_bytes = w.size();
  }
  r.wall_s = since(t0);
  r.layer.minor_faults = static_cast<double>(self_usage().ru_minflt - f0);
  r.layer.pool = pool_delta(p0, pool().stats());
  r.layer.events = static_cast<double>(sim.events_dispatched());
  return r;
}

// ---------------------------------------------------------------------------
// The service layers: a side job server of modeled jobs.

/// The distinct job kinds of the mix: modeled, 1 node, 1 vGPU each. The
/// three iterative kinds cost about 10x the others.
std::vector<svc::JobSpec> serve_kinds() {
  std::vector<svc::JobSpec> kinds;
  svc::JobSpec base;
  base.nodes = 1;
  base.gpus = 1;
  for (const char* app : {"cmeans", "kmeans", "gmm"}) {
    svc::JobSpec s = base;
    s.app = app;
    s.points = 20000;
    s.dims = 16;
    s.clusters = 8;
    s.iterations = 10;
    kinds.push_back(s);
  }
  svc::JobSpec gemv = base;
  gemv.app = "gemv";
  kinds.push_back(gemv);
  svc::JobSpec dgemm = base;
  dgemm.app = "dgemm";
  dgemm.rows = 4000;
  dgemm.dims = 500;
  dgemm.cols = 4000;
  kinds.push_back(dgemm);
  svc::JobSpec fft = base;
  fft.app = "fft";
  fft.points = 4096;
  fft.cols = 1024;
  kinds.push_back(fft);
  return kinds;
}

struct Arrival {
  std::size_t kind = 0;
  const char* tenant = "a";
};

/// `copies` of every kind in a seed-shuffled order; tenants alternate, so
/// each sees the same mix and the 2:1 weights decide their shares.
std::vector<Arrival> arrival_sequence(std::uint64_t seed, std::size_t kinds,
                                      std::size_t copies) {
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < copies; ++c) {
    for (std::size_t k = 0; k < kinds; ++k) order.push_back(k);
  }
  Rng rng(seed);
  rng.shuffle(order);
  std::vector<Arrival> seq;
  for (std::size_t i = 0; i < order.size(); ++i) {
    seq.push_back({order[i], i % 2 == 0 ? "a" : "b"});
  }
  return seq;
}

struct Reference {
  std::string digest;
  double virtual_s = 0.0;
};

struct SingleShot {
  svc::LaunchOutcome out;
  double wall_s = 0.0;
};

/// One job through svc::run_job_spec on a private simulator and cluster,
/// exactly as prs_run and the server's job threads run it.
SingleShot run_single_shot(const svc::JobSpec& spec) {
  SingleShot r;
  sim::Simulator sim;
  const core::NodeConfig node = spec.node_config();
  core::Cluster cluster(sim, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  Rng rng(spec.seed);
  const auto t0 = Clock::now();
  r.out = svc::run_job_spec(spec, cluster, node, cfg, rng, nullptr);
  r.wall_s = since(t0);
  return r;
}

bool matches(const svc::JobStatus& st, const Reference& ref) {
  return st.state == svc::JobState::kDone && st.digest == ref.digest &&
         st.stats.elapsed == ref.virtual_s;
}

std::unique_ptr<svc::JobServer> make_server(svc::Journal* journal) {
  constexpr int kLimit = 1 << 20;  // quotas never bind: load is the variable
  svc::JobServer::Config cfg;
  cfg.pool.cards = 2;
  cfg.pool.slots_per_card = 2;
  cfg.admission.max_queue_depth = kLimit;
  cfg.journal = journal;
  auto server = std::make_unique<svc::JobServer>(cfg);
  svc::TenantQuota heavy;
  heavy.weight = 2.0;
  heavy.max_vgpus = kLimit;
  heavy.max_running = kLimit;
  heavy.max_queued = kLimit;
  svc::TenantQuota light = heavy;
  light.weight = 1.0;
  server->add_tenant("a", heavy);
  server->add_tenant("b", light);
  server->start();
  return server;
}

/// Measures the service layers at the end of every traced run: an
/// in-process svc::JobServer of modeled jobs (journal on in the run's
/// scratch directory, 2 vGPU cards x 2 slots, tenants a:b weighted 2:1)
/// takes closed bursts of the arrival sequence and lone jobs, and
/// Journal::append_durable is timed on a journal of its own. Every server
/// job must reproduce the digest and virtual time of the same spec run
/// single-shot.
class SvcProbe {
 public:
  SvcProbe(const Options& opt, SpanRecorder& rec, Tally& tally)
      : opt_(opt),
        rec_(rec),
        tally_(tally),
        kinds_(serve_kinds()),
        seq_(arrival_sequence(opt.input_seed, kinds_.size(),
                              opt.smoke ? 2 : 6)) {}

  void measure(Result& res) {
    if (opt_.tmp_dir.empty()) {
      throw std::invalid_argument("--trace needs --tmp-dir");
    }
    svc::Journal::Config jc;
    jc.path = opt_.tmp_dir + "/journal.wal";
    std::remove(jc.path.c_str());
    journal_ = std::make_unique<svc::Journal>(jc);
    server_ = make_server(journal_.get());
    single_shots();

    // Closed bursts: the whole sequence submitted at once, then waited
    // for. The first burst's journal records are an exact count.
    bool first = true;
    run_for(opt_.smoke ? 0.1 : 1.0, 1, [&] {
      const auto t0 = Clock::now();
      const std::uint64_t records0 = journal_->records_appended();
      std::vector<std::pair<int, std::size_t>> ids;
      for (const Arrival& a : seq_) submit(a.tenant, a.kind, ids);
      collect(ids);
      if (first) {
        journal_->flush();
        res.layers["svc.journal_records"] =
            static_cast<double>(journal_->records_appended() - records0);
        first = false;
      }
      return since(t0);
    });

    // Lone jobs on the idle server: overhead over the same kind run
    // single-shot, median over kinds.
    std::vector<double> gaps;
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      std::vector<double> walls;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        std::vector<std::pair<int, std::size_t>> ids;
        submit("a", k, ids);
        collect(ids);
        walls.push_back(since(t0));
      }
      gaps.push_back(median(walls) - single_shot_s_[k]);
    }
    res.layers["svc.overhead_ms"] = median(gaps) * 1e3;
    res.layers["svc.journal_append_us"] = journal_append_us();
    res.layers["svc.submit_us"] = median(submit_us_);
    res.layers["svc.shed"] =
        static_cast<double>(shed_ + journal_->records_shed());
  }

 private:
  /// One reference run of every kind, then passes over the sequence for
  /// the median single-shot wall time of each kind.
  void single_shots() {
    for (const svc::JobSpec& spec : kinds_) {
      const SingleShot r = run_single_shot(spec);
      refs_.push_back({r.out.digest, r.out.stats.elapsed});
    }
    std::vector<std::vector<double>> by_kind(kinds_.size());
    run_for(opt_.smoke ? 0.05 : 0.3, 1, [&] {
      const auto t0 = Clock::now();
      for (const Arrival& a : seq_) {
        const SingleShot r = run_single_shot(kinds_[a.kind]);
        tally_.check(
            r.out.digest == refs_[a.kind].digest &&
                r.out.stats.elapsed == refs_[a.kind].virtual_s,
            "single-shot digest or virtual time differs from reference");
        by_kind[a.kind].push_back(r.wall_s);
      }
      return since(t0);
    });
    for (const auto& walls : by_kind) single_shot_s_.push_back(median(walls));
  }

  void submit(const char* tenant, std::size_t kind,
              std::vector<std::pair<int, std::size_t>>& ids) {
    const auto t0 = Clock::now();
    svc::JobServer::SubmitResult sr;
    {
      Span s(rec_, "svc.submit");
      sr = server_->submit(tenant, kinds_[kind]);
    }
    submit_us_.push_back(since(t0) * 1e6);
    if (sr.ok()) {
      ids.emplace_back(sr.job_id, kind);
    } else {
      ++shed_;
      tally_.check(false, "server rejected a submit");
    }
  }

  void collect(const std::vector<std::pair<int, std::size_t>>& ids) {
    for (const auto& [id, kind] : ids) {
      tally_.check(matches(server_->wait(id), refs_[kind]),
                   "server job differs from its single-shot reference");
    }
  }

  /// Median microseconds of Journal::append_durable on a scratch journal.
  double journal_append_us() {
    svc::Journal::Config jc;
    jc.path = opt_.tmp_dir + "/append-probe.wal";
    std::remove(jc.path.c_str());
    svc::Journal journal(jc);
    svc::JournalRecord rec;
    rec.type = svc::JournalRecordType::kSubmit;
    rec.tenant = "a";
    rec.spec_tokens = kinds_[0].to_tokens();
    std::vector<double> us;
    for (int i = 0; i < 50; ++i) {
      rec.job_id = i + 1;
      const auto t0 = Clock::now();
      bool appended = false;
      {
        Span s(rec_, "svc.journal_append");
        appended = journal.append_durable(rec);
      }
      us.push_back(since(t0) * 1e6);
      if (!appended) ++shed_;
    }
    return median(us);
  }

  const Options& opt_;
  SpanRecorder& rec_;
  Tally& tally_;
  const std::vector<svc::JobSpec> kinds_;
  const std::vector<Arrival> seq_;
  std::vector<Reference> refs_;        // single-shot result of each kind
  std::vector<double> single_shot_s_;  // median single-shot wall per kind
  std::vector<double> submit_us_;
  std::uint64_t shed_ = 0;
  std::unique_ptr<svc::Journal> journal_;
  std::unique_ptr<svc::JobServer> server_;  // destroyed before the journal
};

Result run_functional(App& app, const Options& opt, SpanRecorder& rec) {
  Result res;
  const JobEnv env = functional_env();
  HostCeilings ceilings;
  double region_us = 0.0;
  if (opt.trace) {
    Span s(rec, "host.ceilings");
    ceilings = measure_ceilings(opt.threads);
  }

  // Set-up: inputs, one cluster, pool spin-up. Repeated (from a stopped
  // pool) so the reported set-up time is a median.
  repeat_setup(opt.trace || opt.pin, [&](int) {
    pool().shutdown();
    const auto t0 = Clock::now();
    {
      Span s(rec, "data.gen");
      app.generate(opt.input_seed);
    }
    {
      sim::Simulator sim;
      std::optional<core::Cluster> cluster;
      Span s(rec, "sim.cluster_build");
      cluster.emplace(sim, kNodes, env.node);
    }
    {
      Span s(rec, "exec.spin_up");
      spin_up_pool(opt.threads);
    }
    res.samples["setup_s"].push_back(since(t0));
    return since(t0);
  });

  // The first job warms caches and lazy state, and is the reference every
  // later job must reproduce bit for bit.
  Tally tally;
  int job_id = 0;
  const JobRecord ref = run_one(app, env, rec, job_id++);
  tally.check(true, "");
  res.digest = ref.digest;
  res.virtual_s = ref.stats.elapsed;
  auto check = [&](const JobRecord& r) {
    tally.check(r.digest == ref.digest && r.stats.elapsed == ref.stats.elapsed,
                "job digest or virtual time differs from the first job");
  };

  if (opt.pin) {
    res.attempted = tally.attempted;
    return res;
  }

  if (!opt.trace) {
    // Jobs at all threads (k = 0) and at 1 thread (k = 1) interleave, the
    // all-threads ones taking 40% of the time, so a slow stretch of a shared
    // host falls on both series instead of on the whole of one. A job's
    // cycle is its cluster build, the job, the digest and the teardown.
    constexpr double kAllThreadsShare = 0.4;
    std::vector<double> walls[2];
    double cycles_s[2] = {0.0, 0.0};  // summed cycles of each series
    double last_s[2] = {0.0, 0.0};    // latest cycle of each series
    const auto start = Clock::now();
    for (;;) {
      const int k =
          cycles_s[0] <= kAllThreadsShare * (cycles_s[0] + cycles_s[1]) ? 0 : 1;
      const bool enough = walls[0].size() >= 3 && !walls[1].empty();
      if (enough && since(start) + last_s[k] > opt.seconds) break;
      const int threads = k == 0 ? opt.threads : 1;
      if (pool().threads() != threads) spin_up_pool(threads);
      const auto t0 = Clock::now();
      const JobRecord r = run_one(app, env, rec, job_id++);
      last_s[k] = since(t0);
      cycles_s[k] += last_s[k];
      check(r);
      walls[k].push_back(r.wall_s);
    }
    res.samples["job_wall_s"] = walls[0];
    res.samples["job_wall_1t_s"] = walls[1];
    // The all-threads jobs as one closed burst run back to back.
    res.samples["jobs_per_s"] = {static_cast<double>(walls[0].size()) /
                                 cycles_s[0]};
    res.scalars["peak_rss_mb"] =
        static_cast<double>(self_usage().ru_maxrss) / 1024.0;
  } else {
    {
      Span s(rec, "exec.region_probe");
      region_us = region_round_trip_us(2000);
    }
    // Alternate untraced and traced jobs; their median gap is the cost of
    // tracing.
    std::vector<double> untraced, traced;
    std::vector<LayerSample> layers;
    run_for(0.8 * opt.seconds, 4, [&] {
      const auto t0 = Clock::now();
      const bool on = (untraced.size() + traced.size()) % 2 == 1;
      rec.set_enabled(on);
      const JobRecord r = run_one(app, env, rec, job_id++);
      rec.set_enabled(true);
      check(r);
      (on ? traced : untraced).push_back(r.wall_s);
      layers.push_back(r.layer);
      return since(t0);
    });

    const auto iterations =
        static_cast<std::size_t>(std::max(1, ref.stats.iterations));
    const MapCombine mc = app.map_combine(env, rec);
    const double job_ms = median(rec.durations_ms("apps.job"));
    const double digest_ms = median(rec.durations_ms("ckpt.digest"));
    const double gflops = app.map_flops() / (mc.map_ms * 1e-3) / 1e9;

    res.layers["data.gen_ms"] = median(rec.durations_ms("data.gen"));
    res.layers["sim.cluster_build_ms"] =
        median(rec.durations_ms("sim.cluster_build"));
    res.layers["apps.job_ms"] = job_ms;
    res.layers["apps.map_ms"] = mc.map_ms;
    res.layers["apps.combine_ms"] = mc.combine_ms;
    res.layers["apps.map_share"] =
        mc.map_ms * static_cast<double>(iterations) / job_ms;
    res.layers["kernel.gflops"] = gflops;
    res.layers["kernel.roofline_frac"] =
        gflops / roofline_bound(ceilings, app.map_flops() / app.map_bytes());
    add_ceilings(ceilings, res);
    res.layers["linalg.gemm_ms"] = app.gemm_ms(rec);
    add_layer_medians(layers, res);
    res.layers["exec.region_us"] = region_us;
    res.layers["ckpt.digest_ms"] = digest_ms;
    res.layers["ckpt.digest_gbs"] =
        static_cast<double>(ref.digest_bytes) / (digest_ms * 1e-3) / 1e9;
    add_core_counts(ref.stats, res);
    res.layers["simtime.events"] = ref.layer.events;
    res.layers["simtime.events_per_ms"] = ref.layer.events / job_ms;
    res.layers["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0;
    SvcProbe(opt, rec, tally).measure(res);
  }
  res.attempted = tally.attempted;
  res.failed = tally.failed;
  return res;
}

}  // namespace

Result run_workload(const Options& opt, SpanRecorder& rec) {
  std::unique_ptr<App> app;
  if (opt.workload == "cmeans_iter") app = std::make_unique<CmeansApp>(opt.smoke);
  if (opt.workload == "dgemm_bulk") app = std::make_unique<DgemmApp>(opt.smoke);
  if (opt.workload == "wordcount_shuffle") {
    app = std::make_unique<WordcountApp>(opt.smoke);
  }
  if (!app) throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  return run_functional(*app, opt, rec);
}

}  // namespace perfbench
