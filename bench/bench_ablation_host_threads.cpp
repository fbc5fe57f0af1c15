// Ablation: real multicore host execution (exec::ThreadPool).
//
// The paper's CPU daemon runs "one pthread per CPU core"; PRS adds fixed
// chunking + fixed-order combination on top so results are byte-identical
// for any thread count. This bench measures what that buys and what it
// costs, per kernel, on the actual host:
//
//   * wall-clock speedup vs. host threads for the C-means map sweep
//     (Eq 13 weights + Eq 14 partial sums) and the blocked GEMM;
//   * the same C-means sweep on raw std::threads with a static split
//     (the paper's daemon structure, no pool) as the price-of-determinism
//     reference;
//   * input generation (generate_blobs in chunks on the pool);
//   * a byte-identity check of every kernel result and of the generated
//     inputs across all counts.
//
// Wall-clock numbers vary run to run (this is the one bench measuring the
// real machine, not the virtual clock); the identity verdict must not.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "apps/cmeans.hpp"
#include "baselines/cmeans_baselines.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/blas.hpp"

namespace {

using namespace prs;

/// FNV-1a over raw bytes: byte-identity, not approximate equality.
template <typename T>
std::uint64_t digest(std::uint64_t h, const T* p, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// Best-of-3 wall-clock seconds (first run also warms the pool's workers).
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

std::string cell(double seconds, double serial_seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%8.2f ms (%4.2fx)", seconds * 1e3,
                seconds > 0.0 ? serial_seconds / seconds : 0.0);
  return buf;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — host thread pool: wall-clock speedup per kernel",
      "Real host time, not virtual time. Expect >= 3x at 8 cores for the "
      "C-means map and blocked GEMM; results are byte-identical at every "
      "thread count.");

  auto& pool = exec::ThreadPool::instance();
  const int max_threads = exec::ThreadPool::default_threads();
  std::vector<int> counts;
  for (int t = 1; t < max_threads; t *= 2) counts.push_back(t);
  counts.push_back(max_threads);

  // C-means map workload: paper-shaped (many points, modest D/M). The
  // input-generation column regenerates it from the same seed.
  const auto blobs = [](Rng& r) {
    return data::generate_blobs(r, 20000, 16, 8, 10.0, 1.0);
  };
  Rng rng(42);
  auto ds = blobs(rng);
  linalg::MatrixD centers(8, ds.points.cols());
  for (std::size_t r = 0; r < centers.rows(); ++r) {
    for (std::size_t c = 0; c < centers.cols(); ++c) {
      centers(r, c) = ds.points(r, c);
    }
  }
  const double fuzziness = 2.0;

  // Blocked GEMM workload: square, several blocks per dimension.
  auto a = data::random_matrix(rng, 384, 384);
  auto b = data::random_matrix(rng, 384, 384);

  double cmeans_serial_s = 0.0;
  double gemm_serial_s = 0.0;
  double gen_serial_s = 0.0;
  std::uint64_t cmeans_ref = 0;
  std::uint64_t gemm_ref = 0;
  std::uint64_t gen_ref = 0;
  bool identical = true;

  TextTable t({"threads", "cmeans map (pool)", "cmeans map (raw threads)",
               "blocked gemm (pool)", "input generation (pool)"});
  for (const int n : counts) {
    pool.configure(n);
    std::vector<std::vector<double>> partials;
    const double cm = best_seconds([&] {
      apps::cmeans_accumulate(ds.points, centers, fuzziness, 0,
                              ds.points.rows(), partials);
    });
    std::uint64_t cd = 1469598103934665603ULL;
    for (const auto& p : partials) cd = digest(cd, p.data(), p.size());

    linalg::MatrixD c(a.rows(), b.cols(), 0.0);
    const double gm = best_seconds([&] {
      linalg::gemm_blocked(1.0, a, b, 0.0, c);
    });
    const std::uint64_t gd =
        digest(1469598103934665603ULL, &c(0, 0), c.size());

    data::Dataset gen;
    const double gs = best_seconds([&] {
      Rng r(42);
      gen = blobs(r);
    });
    const std::uint64_t gend = digest(
        digest(1469598103934665603ULL, gen.points.storage().data(),
               gen.points.size()),
        gen.labels.data(), gen.labels.size());

    // Raw static-split std::threads: pool sized to 1 so each raw thread
    // runs its slice serially (see cmeans_raw_thread_map).
    pool.configure(1);
    const double raw = best_seconds([&] {
      baselines::cmeans_raw_thread_map(ds.points, centers, fuzziness, n);
    });

    if (n == 1) {
      cmeans_serial_s = cm;
      gemm_serial_s = gm;
      gen_serial_s = gs;
      cmeans_ref = cd;
      gemm_ref = gd;
      gen_ref = gend;
    }
    identical =
        identical && cd == cmeans_ref && gd == gemm_ref && gend == gen_ref;
    t.add_row({std::to_string(n), cell(cm, cmeans_serial_s),
               cell(raw, cmeans_serial_s), cell(gm, gemm_serial_s),
               cell(gs, gen_serial_s)});
  }
  t.print();

  const exec::PoolStats stats = pool.stats();
  std::printf("\npool totals: %llu regions, %llu chunks (%llu stolen), "
              "mean occupancy %.0f%%\n",
              static_cast<unsigned long long>(stats.jobs),
              static_cast<unsigned long long>(stats.chunks),
              static_cast<unsigned long long>(stats.stolen_chunks),
              stats.occupancy() * 100.0);
  std::printf("byte-identity across thread counts: %s\n",
              identical ? "PASS" : "FAIL");
  pool.configure(0);  // restore the default for anything run after us
  return identical ? 0 : 1;
}
