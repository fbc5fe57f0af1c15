#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace prs {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // Xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Rng::discard(std::uint64_t k) {
  // A plain loop of next() steps: exec::parallel_generate's walk over
  // cmeans_iter's 20.2 M draws takes 23-37 ms on a 4-vCPU x86-64 host, so
  // an O(log k) GF(2) jump-ahead would not pay for its code.
  for (; k > 0; --k) next();
}

bool operator==(const Rng& a, const Rng& b) {
  if (!std::equal(a.s_, a.s_ + 4, b.s_) ||
      a.has_cached_normal_ != b.has_cached_normal_) {
    return false;
  }
  // Bits, not values: -0.0 == 0.0, but the two would write other bytes.
  return !a.has_cached_normal_ ||
         std::bit_cast<std::uint64_t>(a.cached_normal_) ==
             std::bit_cast<std::uint64_t>(b.cached_normal_);
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PRS_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PRS_REQUIRE(n > 0, "uniform_index requires n > 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  // Avoid log(0).
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  PRS_REQUIRE(stddev >= 0.0, "normal stddev must be non-negative");
  return mean + stddev * normal();
}

Rng Rng::split(std::uint64_t salt) const {
  SplitMix64 sm(s_[0] ^ rotl(s_[3], 13) ^ (salt * 0x9e3779b97f4a7c15ull));
  return Rng(sm.next());
}

}  // namespace prs
