// Ablation: SIMD inner kernels (src/simd/) — single-thread throughput per
// ISA level and the bit-identity contract that lets the levels coexist.
//
// The paper's CPU daemon issues "one pthread per core" of scalar C; PRS
// adds runtime-dispatched AVX2/AVX-512 inner kernels underneath the same
// deterministic chunking. This bench pins the thread pool to one thread
// (so the ratio is pure ISA, not parallelism), runs each app's serial
// path at every compiled-and-supported level, and reports:
//
//   * best-of-3 wall-clock per level with the speedup vs. scalar;
//   * a byte-identity verdict — every kernel is lane-per-output with
//     scalar-order accumulation, so every level must produce the same
//     bytes;
//   * the acceptance check: AVX2 >= 1.5x scalar on at least two of
//     {cmeans, kmeans, gmm, dgemm}.
//
// Wall-clock numbers vary run to run (real machine, not the virtual
// clock); the identity verdict and the dispatch table must not.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "apps/cmeans.hpp"
#include "apps/gmm.hpp"
#include "apps/kmeans.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/blas.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace prs;

/// FNV-1a over raw double bytes: byte-identity, not approximate equality.
std::uint64_t digest(std::uint64_t h, const double* p, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// Best-of-3 wall-clock seconds (first run also warms caches).
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

struct LevelRun {
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

struct KernelReport {
  std::string name;
  std::vector<LevelRun> runs;  // parallel to the levels vector
  bool identical = true;
};

std::string cell(double seconds, double scalar_seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%9.2f ms (%4.2fx)", seconds * 1e3,
                seconds > 0.0 ? scalar_seconds / seconds : 0.0);
  return buf;
}

linalg::MatrixD synth_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  linalg::MatrixD points(n, d);
  for (std::size_t i = 0; i < n * d; ++i) {
    points.storage()[i] = rng.uniform(-4.0, 4.0);
  }
  return points;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — SIMD inner kernels: single-thread speedup per ISA level",
      "Pool pinned to 1 thread; kernels keep the scalar order, so all levels "
      "must be byte-identical. Acceptance: AVX2 >= 1.5x scalar on >= 2 of "
      "{cmeans, kmeans, gmm, dgemm}.");

  auto& pool = exec::ThreadPool::instance();
  pool.configure(1);

  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::level_supported(simd::Level::kAvx2)) {
    levels.push_back(simd::Level::kAvx2);
  }
  if (simd::level_supported(simd::Level::kAvx512)) {
    levels.push_back(simd::Level::kAvx512);
  }
  std::printf("detected level: %s | compiled: avx2=%s avx512=%s\n",
              simd::level_name(simd::detected_level()),
              simd::avx2_compiled() ? "yes" : "no",
              simd::avx512_compiled() ? "yes" : "no");

  // Paper-shaped workloads: many points, wide enough D that the distance
  // and moment sweeps dominate the per-point scalar transcendentals
  // (pow/log), few iterations so best-of-3 stays under a second per cell.
  const linalg::MatrixD points = synth_points(12000, 48, 42);
  apps::CmeansParams cp;
  cp.clusters = 8;
  cp.max_iterations = 3;
  cp.epsilon = 0.0;
  apps::KmeansParams kp;
  kp.clusters = 8;
  kp.max_iterations = 3;
  kp.epsilon = 0.0;
  apps::GmmParams gp;
  gp.components = 8;
  gp.max_iterations = 3;
  gp.epsilon = 0.0;

  const std::size_t gemm_n = 384;
  linalg::MatrixD ga(gemm_n, gemm_n), gb(gemm_n, gemm_n);
  {
    Rng rng(7);
    for (std::size_t i = 0; i < gemm_n * gemm_n; ++i) {
      ga.storage()[i] = rng.uniform(-1.0, 1.0);
      gb.storage()[i] = rng.uniform(-1.0, 1.0);
    }
  }

  const std::size_t gemv_n = 768;
  linalg::MatrixD va(gemv_n, gemv_n);
  std::vector<double> vx(gemv_n);
  {
    Rng rng(11);
    for (std::size_t i = 0; i < gemv_n * gemv_n; ++i) {
      va.storage()[i] = rng.uniform(-1.0, 1.0);
    }
    for (std::size_t i = 0; i < gemv_n; ++i) vx[i] = rng.uniform(-1.0, 1.0);
  }

  std::vector<KernelReport> reports;
  for (const char* name : {"cmeans", "kmeans", "gmm", "dgemm", "gemv"}) {
    reports.push_back(KernelReport{name, {}, true});
  }

  for (const simd::Level level : levels) {
    simd::set_level(level);

    {  // cmeans map sweep (Eq 13 weights + Eq 14 partial sums).
      apps::CmeansResult res;
      const double s =
          best_seconds([&] { res = apps::cmeans_serial(points, cp); });
      std::uint64_t h = digest(1469598103934665603ULL,
                               res.centers.storage().data(),
                               res.centers.storage().size());
      h = digest(h, &res.objective, 1);
      reports[0].runs.push_back({s, h});
    }
    {  // kmeans: distance block + argmin + sum accumulation.
      apps::KmeansResult res;
      const double s =
          best_seconds([&] { res = apps::kmeans_serial(points, kp); });
      std::uint64_t h = digest(1469598103934665603ULL,
                               res.centers.storage().data(),
                               res.centers.storage().size());
      h = digest(h, &res.inertia, 1);
      reports[1].runs.push_back({s, h});
    }
    {  // gmm E-step: diagonal quadratic form + weighted moments.
      apps::GmmModel model;
      const double s =
          best_seconds([&] { model = apps::gmm_serial(points, gp); });
      std::uint64_t h = digest(1469598103934665603ULL,
                               model.means.storage().data(),
                               model.means.storage().size());
      h = digest(h, &model.log_likelihood, 1);
      reports[2].runs.push_back({s, h});
    }
    {  // blocked dgemm (the paper's dense-kernel workload).
      linalg::MatrixD gc(gemm_n, gemm_n, 0.0);
      const double s =
          best_seconds([&] { linalg::gemm_blocked(1.0, ga, gb, 0.0, gc); });
      reports[3].runs.push_back(
          {s, digest(1469598103934665603ULL, gc.storage().data(),
                     gc.storage().size())});
    }
    {  // gemv via row_dots (lane-per-row, still bit-identical).
      std::vector<double> vy(gemv_n, 0.0);
      const double s = best_seconds([&] {
        for (int rep = 0; rep < 50; ++rep) {
          linalg::gemv(1.0, va, std::span<const double>{vx},
                       0.0, std::span<double>{vy});
        }
      });
      reports[4].runs.push_back(
          {s, digest(1469598103934665603ULL, vy.data(), vy.size())});
    }
  }
  simd::clear_level_override();

  // -- report -----------------------------------------------------------
  std::printf("\n%-8s", "kernel");
  for (const simd::Level level : levels) {
    std::printf(" | %19s", simd::level_name(level));
  }
  std::printf(" | identical\n");
  bool all_identical = true;
  for (auto& rep : reports) {
    for (const auto& run : rep.runs) {
      rep.identical = rep.identical && run.digest == rep.runs[0].digest;
    }
    all_identical = all_identical && rep.identical;
    std::printf("%-8s", rep.name.c_str());
    for (const auto& run : rep.runs) {
      std::printf(" | %s", cell(run.seconds, rep.runs[0].seconds).c_str());
    }
    std::printf(" | %s\n", rep.identical ? "yes" : "NO — BUG");
  }

  // -- acceptance verdicts ----------------------------------------------
  int fast_enough = 0;
  if (levels.size() > 1) {
    for (std::size_t i = 0; i < 4; ++i) {  // cmeans, kmeans, gmm, dgemm
      const double ratio =
          reports[i].runs[0].seconds / reports[i].runs[1].seconds;
      if (ratio >= 1.5) ++fast_enough;
    }
    std::printf(
        "\nacceptance: %d of {cmeans, kmeans, gmm, dgemm} at >= 1.5x "
        "avx2-vs-scalar (need >= 2): %s\n",
        fast_enough, fast_enough >= 2 ? "PASS" : "FAIL");
  } else {
    std::printf("\nacceptance: host has no AVX2 — speedup check skipped\n");
  }
  std::printf("byte-identity across levels: %s\n",
              all_identical ? "PASS" : "FAIL");

  pool.configure(0);  // restore the default for anything run after us
  return (all_identical && (levels.size() == 1 || fast_enough >= 2)) ? 0 : 1;
}
