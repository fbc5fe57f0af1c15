#include "ceilings.hpp"

#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Twelve independent accumulator chains keep both FMA ports busy through
// the 4-cycle FMA latency; the result is returned so nothing is elided.
constexpr int kChains = 12;
constexpr long kFmaIters = 1L << 25;

__attribute__((target("avx512f"))) double fma_avx512(long iters, double seed) {
  __m512d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm512_set1_pd(seed + k);
  const __m512d m = _mm512_set1_pd(0.999999);
  const __m512d a = _mm512_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i) {
    for (int k = 0; k < kChains; ++k) acc[k] = _mm512_fmadd_pd(acc[k], m, a);
  }
  alignas(64) double lanes[8];
  double out = 0.0;
  for (int k = 0; k < kChains; ++k) {
    _mm512_store_pd(lanes, acc[k]);
    for (double v : lanes) out += v;
  }
  return out;
}

__attribute__((target("avx2,fma"))) double fma_avx2(long iters, double seed) {
  __m256d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm256_set1_pd(seed + k);
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d a = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i) {
    for (int k = 0; k < kChains; ++k) acc[k] = _mm256_fmadd_pd(acc[k], m, a);
  }
  alignas(32) double lanes[4];
  double out = 0.0;
  for (int k = 0; k < kChains; ++k) {
    _mm256_store_pd(lanes, acc[k]);
    out += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  return out;
}

double fma_scalar(long iters, double seed) {
  double acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = seed + k;
  for (long i = 0; i < iters; ++i) {
    for (int k = 0; k < kChains; ++k) acc[k] = acc[k] * 0.999999 + 1e-7;
  }
  double out = 0.0;
  for (int k = 0; k < kChains; ++k) out += acc[k];
  return out;
}

/// Runs body(t) on `threads` threads released together; returns the wall
/// seconds from release to the last join.
template <typename Body>
double timed_on_threads(int threads, Body body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&go, &body, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double measure_peak_gflops(int threads) {
  double (*kernel)(long, double) = fma_scalar;
  double lanes = 1.0;
  if (__builtin_cpu_supports("avx512f")) {
    kernel = fma_avx512;
    lanes = 8.0;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    kernel = fma_avx2;
    lanes = 4.0;
  }
  std::vector<double> sink(static_cast<std::size_t>(threads));
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const double s = timed_on_threads(threads, [&](int t) {
      sink[static_cast<std::size_t>(t)] = kernel(kFmaIters, 1.0 + t);
    });
    const double flops = 2.0 * lanes * kChains * static_cast<double>(kFmaIters) *
                         static_cast<double>(threads);
    best = std::max(best, flops / s / 1e9);
  }
  volatile double keep = sink[0];
  (void)keep;
  return best;
}

std::size_t llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v <= 0) v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (v <= 0) {
    // sysfs reports e.g. "32768K".
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string s;
    if (f >> s && !s.empty()) {
      const char unit = s.back();
      v = std::stol(s);
      if (unit == 'K') v *= 1024;
      if (unit == 'M') v *= 1024 * 1024;
    }
  }
  return v > 0 ? static_cast<std::size_t>(v) : std::size_t{32} << 20;
}

}  // namespace

HostCeilings measure_ceilings(int threads) {
  HostCeilings c;
  c.peak_gflops = measure_peak_gflops(threads);

  const std::size_t llc = llc_bytes();
  const std::size_t bytes = std::max<std::size_t>(4 * llc, std::size_t{64} << 20);
  const std::size_t n = bytes / sizeof(std::uint64_t);
  c.llc_mb = static_cast<double>(llc) / (1 << 20);
  c.stream_mb = static_cast<double>(n * sizeof(std::uint64_t)) / (1 << 20);

  std::unique_ptr<std::uint64_t[]> data(new std::uint64_t[n]);
  const std::size_t per = (n + static_cast<std::size_t>(threads) - 1) /
                          static_cast<std::size_t>(threads);
  auto slice = [&](int t) {
    const std::size_t b = std::min(n, per * static_cast<std::size_t>(t));
    return std::pair<std::size_t, std::size_t>(b, std::min(n, b + per));
  };
  // First touch from the threads that stream the slice afterwards.
  timed_on_threads(threads, [&](int t) {
    const auto [b, e] = slice(t);
    for (std::size_t i = b; i < e; ++i) data[i] = i;
  });
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads));
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const double s = timed_on_threads(threads, [&](int t) {
      const auto [b, e] = slice(t);
      std::uint64_t acc = 0;  // integer sum: vectorizes without reassociation
      for (std::size_t i = b; i < e; ++i) acc += data[i];
      sums[static_cast<std::size_t>(t)] = acc;
    });
    best = std::max(best, static_cast<double>(n * sizeof(std::uint64_t)) / s / 1e9);
  }
  volatile std::uint64_t keep = sums[0];
  (void)keep;
  c.mem_gbs = best;
  return c;
}

}  // namespace perfbench
