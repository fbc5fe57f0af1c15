// Ablation: NUMA-aware host execution (prs::numa + exec::ThreadPool).
//
// Measures what NUMA mode buys on the actual host, per workload:
//
//   * one wordcount map task over the whole corpus, NUMA off vs on. Both
//     modes run the same single-threaded per-task count (the map has one
//     path), so this row is a control: any gap is host noise;
//   * the C-means accumulate sweep, NUMA off vs on (pinning + socket-local
//     steal order + input prefault);
//   * steal locality (exec.pool.steals_local / steals_remote) under each
//     mode;
//   * a byte-identity check between the modes — placement must never
//     change the bytes (exit 1 if it does).
//
// On a single-socket host the steal-order/pinning deltas are noise by
// design (the lane map degenerates to the flat one). Wall-clock numbers
// vary run to run; the identity verdict must not.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/cmeans.hpp"
#include "apps/wordcount.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "exec/thread_pool.hpp"
#include "numa/topology.hpp"

namespace {

using namespace prs;

std::uint64_t digest(std::uint64_t h, const double* p, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// Best-of-3 wall-clock seconds (first run also warms workers/pages).
template <typename F>
double best_seconds(F&& f) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

std::string cell(double seconds, double baseline_seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%8.2f ms (%4.2fx)", seconds * 1e3,
                seconds > 0.0 ? baseline_seconds / seconds : 0.0);
  return buf;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — NUMA mode: pinning, socket-local steals",
      "Real host time. Wordcount runs the same map path in both modes (a "
      "control row); pinning/steal-order deltas only appear on "
      "multi-socket hosts. Bytes must match between modes.");

  auto& pool = exec::ThreadPool::instance();
  const numa::Topology host = numa::discover();
  std::printf("host topology: %s\n\n", host.summary().c_str());

  // Wordcount workload: Zipf-ish corpus, paper's leftmost-AI app.
  Rng rng(42);
  auto corpus = std::make_shared<const apps::Corpus>(
      apps::generate_corpus(rng, 60000, 12, 20000));
  auto wc_spec = apps::wordcount_spec(corpus);

  // C-means accumulate workload (the map inner loop NUMA placement serves).
  auto ds = data::generate_blobs(rng, 40000, 16, 8, 10.0, 1.0);
  linalg::MatrixD centers(8, ds.points.cols());
  for (std::size_t r = 0; r < centers.rows(); ++r) {
    for (std::size_t c = 0; c < centers.cols(); ++c) {
      centers(r, c) = ds.points(r, c);
    }
  }

  struct ModeResult {
    double wc_s = 0.0;
    double cm_s = 0.0;
    std::uint64_t wc_digest = 0;
    std::uint64_t cm_digest = 0;
    std::uint64_t steals_local = 0;
    std::uint64_t steals_remote = 0;
    int sockets = 1;
    int pinned = 0;
  };

  auto run_mode = [&](bool on) {
    numa::ScopedEnable scope(on);
    ModeResult r;
    pool.reset_stats();

    std::map<std::string, long> wc_out;
    r.wc_s = best_seconds([&] {
      core::Emitter<std::string, long> em;
      wc_spec.cpu_map(core::InputSlice{0, corpus->size()}, em);
      wc_out.clear();
      for (const auto& [w, c] : em.pairs()) wc_out[w] += c;
    });
    r.wc_digest = 1469598103934665603ULL;
    for (const auto& [w, c] : wc_out) {
      for (const char ch : w) {
        r.wc_digest =
            (r.wc_digest ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
      }
      const auto cd = static_cast<double>(c);
      r.wc_digest = digest(r.wc_digest, &cd, 1);
    }

    std::vector<std::vector<double>> partials;
    r.cm_s = best_seconds([&] {
      apps::cmeans_accumulate(ds.points, centers, 2.0, 0, ds.points.rows(),
                              partials);
    });
    r.cm_digest = 1469598103934665603ULL;
    for (const auto& p : partials) {
      r.cm_digest = digest(r.cm_digest, p.data(), p.size());
    }

    const exec::PoolStats s = pool.stats();
    r.steals_local = s.steals_local;
    r.steals_remote = s.steals_remote;
    r.sockets = s.sockets;
    r.pinned = s.pinned_lanes;
    return r;
  };

  const int threads = exec::ThreadPool::default_threads();
  pool.configure(threads);
  const ModeResult off = run_mode(false);
  const ModeResult on = run_mode(true);

  TextTable t({"workload", "numa off", "numa on", "speedup"});
  char sp[32];
  std::snprintf(sp, sizeof(sp), "%.2fx", on.wc_s > 0 ? off.wc_s / on.wc_s : 0);
  t.add_row({"wordcount map (same path)", cell(off.wc_s, off.wc_s),
             cell(on.wc_s, off.wc_s), sp});
  std::snprintf(sp, sizeof(sp), "%.2fx", on.cm_s > 0 ? off.cm_s / on.cm_s : 0);
  t.add_row({"cmeans accumulate", cell(off.cm_s, off.cm_s),
             cell(on.cm_s, off.cm_s), sp});
  t.print();

  std::printf("\nnuma on : %d socket group(s), %d pinned lane(s), "
              "steals %llu local / %llu remote\n",
              on.sockets, on.pinned,
              static_cast<unsigned long long>(on.steals_local),
              static_cast<unsigned long long>(on.steals_remote));
  std::printf("numa off: %d socket group(s), %d pinned lane(s), "
              "steals %llu local / %llu remote\n",
              off.sockets, off.pinned,
              static_cast<unsigned long long>(off.steals_local),
              static_cast<unsigned long long>(off.steals_remote));

  const bool identical =
      off.wc_digest == on.wc_digest && off.cm_digest == on.cm_digest;
  std::printf("byte-identity numa on vs off: %s\n",
              identical ? "PASS" : "FAIL");
  pool.configure(0);  // restore the default for anything run after us
  return identical ? 0 : 1;
}
