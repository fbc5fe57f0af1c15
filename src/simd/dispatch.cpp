#include "simd/dispatch.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "simd/tables.hpp"

namespace prs::simd {
namespace {

/// Programmatic override; -1 = none. A plain atomic: the override is set up
/// front (CLI parse, test SetUp) — never while kernels are in flight.
std::atomic<int> g_level_override{-1};

Level detect() {
#if defined(__x86_64__) || defined(__i386__)
  // The features each TU's -m flags allow (simd/CMakeLists.txt).
  if (avx512_compiled() && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw")) {
    return Level::kAvx512;
  }
  if (avx2_compiled() && __builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

/// PRS_SIMD resolved once (an env change mid-process is not a supported
/// way to switch levels — use set_level, as the CLI does).
Level env_or_detected() {
  static const Level cached = [] {
    const char* e = std::getenv("PRS_SIMD");
    if (e != nullptr && *e != '\0') {
      const Level lvl = parse_level(e);
      if (!level_supported(lvl)) {
        throw InvalidArgument(std::string("PRS_SIMD=") + e +
                              " is not supported on this host (detected: " +
                              level_name(detected_level()) + ")");
      }
      return lvl;
    }
    return detected_level();
  }();
  return cached;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "scalar";
}

Level detected_level() {
  static const Level cached = detect();
  return cached;
}

bool level_supported(Level level) {
  return static_cast<int>(level) <= static_cast<int>(detected_level());
}

Level parse_level(const std::string& name) {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  if (name == "avx512") return Level::kAvx512;
  if (name == "auto") return detected_level();
  throw InvalidArgument("unknown SIMD level: " + name +
                        " (scalar | avx2 | avx512 | auto)");
}

Level active_level() {
  const int forced = g_level_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  return env_or_detected();
}

void set_level(Level level) {
  if (!level_supported(level)) {
    throw InvalidArgument(std::string("SIMD level ") + level_name(level) +
                          " is not supported on this host (detected: " +
                          level_name(detected_level()) + ")");
  }
  g_level_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void set_level(const std::string& name) {
  if (name == "auto") {
    clear_level_override();
    return;
  }
  set_level(parse_level(name));
}

void clear_level_override() {
  g_level_override.store(-1, std::memory_order_relaxed);
}

const Kernels& kernels_for(Level level) {
  switch (level) {
    case Level::kAvx512:
      return avx512_kernels();
    case Level::kAvx2:
      return avx2_kernels();
    case Level::kScalar:
      break;
  }
  return scalar_kernels();
}

double measure_host_speedup() {
  const Kernels& vec = kernels_for(active_level());
  const Kernels& sc = scalar_kernels();
  if (&vec == &sc) return 1.0;

  // The clustering map's two kernels on one 16-point block: distances to
  // 16 centers in 64 dims, then the block's rank-16 update of the
  // 16 x 64 weighted sums.
  constexpr std::size_t kB = 16, kM = 16, kD = 64, kReps = 400;
  std::vector<double> x(kB * kD), centers(kM * kD), dist(kB * kM);
  std::vector<double> w(kM * kB), acc(kM * kD, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25 * static_cast<double>(i % kD);
  }
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers[i] = 1.0 + 0.001 * static_cast<double>(i % 997);
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.5 + 0.002 * static_cast<double>(i % 499);
  }

  auto run = [&](const Kernels& k) {
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
      const auto t0 = clock::now();
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        k.dist2_rows(x.data(), kB, kD, centers.data(), kM, dist.data());
        k.gemm_block(kM, kD, kB, 1.0, w.data(), kB, x.data(), kD, 1.0,
                     acc.data(), kD);
      }
      const double s =
          std::chrono::duration<double>(clock::now() - t0).count();
      best = best < s ? best : s;
    }
    return best;
  };

  run(sc);  // warm caches before timing either side
  const double t_vec = run(vec);
  const double t_sc = run(sc);
  if (t_vec <= 0.0 || t_sc <= 0.0) return 1.0;
  const double ratio = t_sc / t_vec;
  if (ratio < 1.0) return 1.0;
  return ratio > 16.0 ? 16.0 : ratio;
}

}  // namespace prs::simd
