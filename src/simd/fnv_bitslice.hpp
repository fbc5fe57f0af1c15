// Internal to the AVX2 and AVX-512 TUs: the bit-sliced FNV-1a step they
// share. Each TU supplies how a 64-byte block becomes bit planes and how
// the polynomial is summed; everything else is here, compiled once per TU
// with that TU's flags.
//
// The low byte of the FNV-1a 64 state runs its own chain,
// low' = ((low ^ b) * 0xb3) mod 256. Bit k of low' is bit k of low ^ b
// plus the bits that the multiply carries into column k, and those come
// from columns below k only. So the chain is solved one bit plane at a
// time: once planes 0..k-1 of every position are known, plane k is a
// prefix XOR over the positions. A group of kLanes blocks runs in vector
// lanes, one block per lane, so each operation below serves all of them.
// DESIGN.md §4j gives the identities and why the digest cannot move.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "simd/kernels.hpp"
#include "simd/scalar_ref.hpp"

// Internal linkage: each TU gets its own copy built with its own flags, so
// the linker can never hand one TU the other's instructions.
namespace prs::simd::fnv {
namespace {

inline constexpr std::size_t kBlock = 64;  // positions per bit plane
inline constexpr std::size_t kLanes = 8;   // blocks run in lockstep
inline constexpr std::size_t kGroup = kBlock * kLanes;

/// Bit planes of one block: plane k has bit i = bit k of byte i.
using Planes = std::array<std::uint64_t, 8>;

/// The same plane of the kLanes blocks of a group, lane j for block j: one
/// zmm at AVX-512, two ymm at AVX2. Passed by reference only, so no
/// function signature depends on the vector ABI.
typedef std::uint64_t Lanes __attribute__((vector_size(8 * kLanes)));

/// A group's planes, plane-major: g[k][j] is plane k of block j.
using GroupPlanes = std::array<Lanes, 8>;

/// kFnvPrime^n mod 2^64: what a state is multiplied by when n more bytes
/// are hashed after it, apart from the low-byte terms.
constexpr std::uint64_t prime_pow(std::size_t n) {
  std::uint64_t result = 1;
  std::uint64_t base = ref::kFnvPrime;
  for (; n != 0; n >>= 1) {
    if ((n & 1) != 0) result *= base;
    base *= base;
  }
  return result;
}

/// kFnvPrime^(64 - o) for o in [0, 64): the weight of Horner lane o (the
/// bytes at offset o of each block) in the folded sum.
inline constexpr std::array<std::uint64_t, kBlock> kLaneWeight = [] {
  std::array<std::uint64_t, kBlock> w{};
  for (std::size_t o = 0; o < kBlock; ++o) w[o] = prime_pow(kBlock - o);
  return w;
}();

/// In each lane, bit i becomes bit 0 ^ ... ^ bit i.
inline void prefix_xor(Lanes& c) {
  c ^= c << 1;
  c ^= c << 2;
  c ^= c << 4;
  c ^= c << 8;
  c ^= c << 16;
  c ^= c << 32;
}

/// Lane j becomes lane 0 ^ ... ^ lane j-1 (lane 0 becomes 0).
inline void exclusive_lane_xor(Lanes& t) {
  static_assert(kLanes == 8, "the shuffles below are written for 8 lanes");
  const Lanes zero = {};
  // Index 8 picks a zero; lane j takes lane j - 1, j - 2 or j - 4.
  t = __builtin_shufflevector(t, zero, 8, 0, 1, 2, 3, 4, 5, 6);
  t ^= __builtin_shufflevector(t, zero, 8, 0, 1, 2, 3, 4, 5, 6);
  t ^= __builtin_shufflevector(t, zero, 8, 8, 0, 1, 2, 3, 4, 5);
  t ^= __builtin_shufflevector(t, zero, 8, 8, 8, 8, 0, 1, 2, 3);
}

/// Adds x * (0xb3 << K) into the bit-sliced accumulator a, keeping only
/// columns above K: column K (the multiplier's bit 0) is final already and
/// is never read again, so it only produces its carry. Full adders sit at
/// the multiplier's set bits (offsets 1, 4, 5, 7), half adders elsewhere.
template <int K>
inline void ripple(GroupPlanes& a, const Lanes& x) {
  Lanes carry = a[K] & x;
  [&]<int... O>(std::integer_sequence<int, O...>) {
    (
        [&] {
          constexpr int kCol = K + 1 + O;
          if constexpr (kCol < 8) {
            Lanes& t = a[kCol];
            if constexpr (((0xb3 >> (O + 1)) & 1) != 0) {  // full adder
              const Lanes s = t ^ x;
              const Lanes next = (t & x) | (carry & s);
              t = s ^ carry;
              carry = next;
            } else {  // half adder
              const Lanes next = t & carry;
              t ^= carry;
              carry = next;
            }
          }
        }(),
        ...);
  }(std::make_integer_sequence<int, 7>{});
}

/// The low byte between groups, one bit (0 or 1) per plane.
inline Planes spread(std::uint8_t low) {
  Planes s{};
  for (int k = 0; k < 8; ++k) s[k] = (low >> k) & 1u;
  return s;
}

/// Advances the low-byte chain over the kLanes blocks of a group with byte
/// planes b. `start` holds the low byte before the first block (spread())
/// and is left at the low byte after the last. low[k][j] receives plane k
/// of the low byte before each byte of block j.
inline void step(const GroupPlanes& b, Planes& start, GroupPlanes& low) {
  GroupPlanes acc{};  // sum of the product rows so far
  [&]<int... K>(std::integer_sequence<int, K...>) {
    (
        [&] {
          // From position i to i + 1, bit K of the low byte flips by
          // b ^ (column K of the product rows so far). The plane is the
          // prefix XOR of those flips, one position late, started from the
          // block's first bit, which the earlier blocks' flips set.
          Lanes incl = b[K] ^ acc[K];
          prefix_xor(incl);
          const Lanes flips = incl >> 63;  // 1: block j flips the bit in all
          Lanes first = flips;
          exclusive_lane_xor(first);
          first ^= start[K];
          start[K] = first[kLanes - 1] ^ flips[kLanes - 1];
          const Lanes l = (incl << 1) ^ (0 - first);
          low[K] = l;
          if constexpr (K < 7) ripple<K>(acc, l ^ b[K]);
        }(),
        ...);
  }(std::make_integer_sequence<int, 8>{});
}

/// The planes of a group's blocks: `extract(block, planes)` fills the 8
/// planes of one 64-byte block.
template <typename Extract>
inline void group_planes(const unsigned char* p, GroupPlanes& g,
                         Extract extract) {
  for (std::size_t j = 0; j < kLanes; ++j) {
    Planes b{};
    extract(p + j * kBlock, b);
    for (std::size_t k = 0; k < 8; ++k) g[k][j] = b[k];
  }
}

/// Kernels::fnv_span over whole groups; inputs shorter than a group and
/// the tail run the byte loop. The state after the groups is
/// h * P^i + sum_o P^(64 - o) * lane_o, where lane o is the Horner sum, at
/// multiplier P^64, of d = (low ^ b) - low over the bytes at offset o of
/// each block (DESIGN.md §4j). `Poly` holds the 64 lanes:
/// poly.add(low_planes, block) and poly.fold().
template <typename Poly, typename Extract>
std::uint64_t span(const unsigned char* p, std::size_t n, std::uint64_t h,
                   Extract extract) {
  if (n < kGroup) return ref::fnv_bytes(p, n, h);
  Planes state = spread(static_cast<std::uint8_t>(h));
  Poly poly;
  std::size_t i = 0;
  for (; kGroup <= n - i; i += kGroup) {
    GroupPlanes b{};
    GroupPlanes lows{};
    group_planes(p + i, b, extract);
    step(b, state, lows);
    for (std::size_t j = 0; j < kLanes; ++j) {
      Planes l{};
      for (std::size_t k = 0; k < 8; ++k) l[k] = lows[k][j];
      poly.add(l, p + i + j * kBlock);
    }
  }
  return ref::fnv_bytes(p + i, n - i, h * prime_pow(i) + poly.fold());
}

}  // namespace
}  // namespace prs::simd::fnv
