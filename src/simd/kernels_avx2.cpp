// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off (see
// simd/CMakeLists.txt); when the compiler lacks those flags the table
// falls back to the scalar reference and avx2_compiled() reports false.
//
// Determinism: the kernels are lane-per-output — vector lane j
// accumulates output element j over the SAME ascending-c sequence of
// unfused multiplies and adds as the scalar reference, so each lane
// reproduces the scalar rounding exactly.
#include "simd/tables.hpp"

#include "simd/scalar_ref.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "simd/fnv_bitslice.hpp"

namespace prs::simd {
namespace {

constexpr std::size_t kW = 4;  // doubles per __m256d

// dist2_rows: the lanes hold kW points; same scheme as the AVX-512 TU,
// with groups of at most 8 centers (8 accumulators of the 16 ymm, leaving
// room for the coordinates, the broadcast center and the difference).
constexpr std::size_t kDistDims = 128;   // dimensions per transposed tile
constexpr std::size_t kDistCenters = 8;  // centers per register group

template <std::size_t G>
void dist2_group(const double* xt, std::size_t dims, const double* cen,
                 std::size_t d, double* sums) {
  __m256d acc[G];
#pragma GCC unroll 8
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm256_load_pd(sums + g * kW);
  for (std::size_t c = 0; c < dims; ++c) {
    const __m256d xv = _mm256_load_pd(xt + c * kW);
#pragma GCC unroll 8
    for (std::size_t g = 0; g < G; ++g) {
      const __m256d diff = _mm256_sub_pd(xv, _mm256_set1_pd(cen[g * d + c]));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(diff, diff));
    }
  }
#pragma GCC unroll 8
  for (std::size_t g = 0; g < G; ++g) _mm256_store_pd(sums + g * kW, acc[g]);
}

using DistGroup = void (*)(const double*, std::size_t, const double*,
                           std::size_t, double*);

// [centers in the group - 1]
constexpr DistGroup kDistGroups[kDistCenters] = {
    dist2_group<1>, dist2_group<2>, dist2_group<3>, dist2_group<4>,
    dist2_group<5>, dist2_group<6>, dist2_group<7>, dist2_group<8>,
};

void dist2_rows(const double* x, std::size_t n, std::size_t d,
                const double* centers, std::size_t m, double* out) {
  alignas(32) double xt[kDistDims * kW];
  alignas(32) double sums[kDistCenters * kW];
  const std::size_t groups = (m + kDistCenters - 1) / kDistCenters;
  const auto dd = static_cast<long long>(d);
  const __m256i rows = _mm256_set_epi64x(3 * dd, 2 * dd, dd, 0);
  for (std::size_t i0 = 0; i0 < n; i0 += kW) {
    const std::size_t lanes = std::min(kW, n - i0);
    // Lane l is live when l < lanes (sign bit set).
    const __m256d live = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(lanes)),
        _mm256_set_epi64x(3, 2, 1, 0)));
    double* ob = out + i0 * m;
    for (std::size_t c0 = 0; c0 == 0 || c0 < d; c0 += kDistDims) {
      const std::size_t dims = std::min(kDistDims, d - c0);
      const double* xb = x + i0 * d + c0;
      for (std::size_t c = 0; c < dims; ++c) {
        _mm256_store_pd(xt + c * kW,
                        _mm256_mask_i64gather_pd(_mm256_setzero_pd(), xb + c,
                                                 rows, live, 8));
      }
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t j0 = m * g / groups;
        const std::size_t size = m * (g + 1) / groups - j0;
        for (std::size_t k = 0; k < size; ++k) {
          for (std::size_t l = 0; l < kW; ++l) {
            sums[k * kW + l] =
                c0 > 0 && l < lanes ? ob[l * m + j0 + k] : 0.0;
          }
        }
        kDistGroups[size - 1](xt, dims, centers + j0 * d + c0, d, sums);
        for (std::size_t l = 0; l < lanes; ++l) {
          for (std::size_t k = 0; k < size; ++k) {
            ob[l * m + j0 + k] = sums[k * kW + l];
          }
        }
      }
    }
  }
}

void quad_block(const double* x, const double* mu_t, const double* var_t,
                std::size_t m, std::size_t d, double* out) {
  std::size_t j = 0;
  for (; j + kW <= m; j += kW) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t c = 0; c < d; ++c) {
      const __m256d xc = _mm256_set1_pd(x[c]);
      const __m256d mu = _mm256_loadu_pd(mu_t + c * m + j);
      const __m256d var = _mm256_loadu_pd(var_t + c * m + j);
      const __m256d diff = _mm256_sub_pd(xc, mu);
      acc = _mm256_add_pd(acc,
                          _mm256_div_pd(_mm256_mul_pd(diff, diff), var));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < m; ++j) {
    double quad = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = x[c] - mu_t[c * m + j];
      quad += diff * diff / var_t[c * m + j];
    }
    out[j] = quad;
  }
}

void add_acc(double* acc, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256d a = _mm256_loadu_pd(acc + i);
    const __m256d xv = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(a, xv));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void moments_acc(double* p1, double* p2, const double* x, double r,
                 std::size_t n) {
  const __m256d rv = _mm256_set1_pd(r);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d rx = _mm256_mul_pd(rv, xv);
    _mm256_storeu_pd(p1 + i, _mm256_add_pd(_mm256_loadu_pd(p1 + i), rx));
    _mm256_storeu_pd(
        p2 + i, _mm256_add_pd(_mm256_loadu_pd(p2 + i), _mm256_mul_pd(rx, xv)));
  }
  for (; i < n; ++i) {
    p1[i] += r * x[i];
    p2[i] += r * x[i] * x[i];
  }
}

void row_dots(const double* a, std::size_t lda, std::size_t rows,
              std::size_t d, const double* x, double* out) {
  std::size_t r = 0;
  for (; r + kW <= rows; r += kW) {
    const double* r0 = a + (r + 0) * lda;
    const double* r1 = a + (r + 1) * lda;
    const double* r2 = a + (r + 2) * lda;
    const double* r3 = a + (r + 3) * lda;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t c = 0; c < d; ++c) {
      const __m256d av = _mm256_set_pd(r3[c], r2[c], r1[c], r0[c]);
      const __m256d xv = _mm256_set1_pd(x[c]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(av, xv));
    }
    _mm256_storeu_pd(out + r, acc);
  }
  if (r < rows) ref::row_dots(a + r * lda, lda, rows - r, d, x, out + r);
}

double stencil_row(double* out, const double* mid, const double* up,
                   const double* down, std::size_t cols) {
  const __m256d quarter = _mm256_set1_pd(0.25);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d vmax = _mm256_setzero_pd();
  std::size_t c = 1;
  if (cols >= 2) {
    for (; c + kW <= cols - 1; c += kW) {
      const __m256d sum = _mm256_add_pd(
          _mm256_add_pd(
              _mm256_add_pd(_mm256_loadu_pd(up + c), _mm256_loadu_pd(down + c)),
              _mm256_loadu_pd(mid + c - 1)),
          _mm256_loadu_pd(mid + c + 1));
      const __m256d v = _mm256_mul_pd(quarter, sum);
      _mm256_storeu_pd(out + c, v);
      const __m256d diff = _mm256_andnot_pd(
          sign_mask, _mm256_sub_pd(v, _mm256_loadu_pd(mid + c)));
      vmax = _mm256_max_pd(vmax, diff);
    }
  }
  double lanes[kW];
  _mm256_storeu_pd(lanes, vmax);
  double max_update = std::max(std::max(lanes[0], lanes[1]),
                               std::max(lanes[2], lanes[3]));
  for (; c + 1 < cols; ++c) {
    const double v = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
    out[c] = v;
    max_update = std::max(max_update, std::fabs(v - mid[c]));
  }
  return max_update;
}

// gemm: an R x V tile — R rows of C, V vectors of kW columns each — stays
// in R*V registers for the whole p loop (4 x 2 = 8 of the 16 ymm at full
// size, leaving room for the B row, the broadcast and the product).
// `last` marks the lanes of the last vector inside the block; the other
// lanes compute on zeros and are never stored. Per lane the operations are
// ref::gemm_block's: c * beta, then c + (alpha * a) * b in ascending p,
// unfused.
constexpr std::size_t kMr = 4;         // tile rows
constexpr std::size_t kNv = 2;         // tile vectors
constexpr std::size_t kNr = kNv * kW;  // tile columns

template <std::size_t R, std::size_t V>
void gemm_tile(std::size_t k, double alpha, const double* a, std::size_t lda,
               const double* b, std::size_t ldb, double beta, double* c,
               std::size_t ldc, __m256i last) {
  const auto load = [last](const double* p, std::size_t v) {
    return v + 1 < V ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, last);
  };
  const __m256d bv = _mm256_set1_pd(beta);
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = _mm256_mul_pd(load(c + r * ldc + v * kW, v), bv);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb;
    __m256d bl[V];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) bl[v] = load(bp + v * kW, v);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d ar = _mm256_set1_pd(alpha * a[r * lda + p]);
#pragma GCC unroll 2
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(ar, bl[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < V; ++v) {
      double* cp = c + r * ldc + v * kW;
      if (v + 1 < V) {
        _mm256_storeu_pd(cp, acc[r][v]);
      } else {
        _mm256_maskstore_pd(cp, last, acc[r][v]);
      }
    }
  }
}

using GemmTile = void (*)(std::size_t, double, const double*, std::size_t,
                          const double*, std::size_t, double, double*,
                          std::size_t, __m256i);

// [log2 rows][vectors - 1]: the full tile and the edge tiles. A block's
// last rows run in tiles of the largest heights that fit (2, 1).
constexpr GemmTile kGemmTiles[3][kNv] = {
    {gemm_tile<1, 1>, gemm_tile<1, 2>},
    {gemm_tile<2, 1>, gemm_tile<2, 2>},
    {gemm_tile<4, 1>, gemm_tile<4, 2>},
};

void gemm_block(std::size_t rows, std::size_t cols, std::size_t k,
                double alpha, const double* a, std::size_t lda,
                const double* b, std::size_t ldb, double beta, double* c,
                std::size_t ldc) {
  for (std::size_t i = 0; i < rows;) {
    const std::size_t h = std::bit_floor(std::min(kMr, rows - i));
    const GemmTile* tiles = kGemmTiles[std::countr_zero(h)];
    for (std::size_t j = 0; j < cols; j += kNr) {
      const std::size_t w = std::min(kNr, cols - j);
      const std::size_t nv = (w + kW - 1) / kW;
      // Lane l is live when l < the last vector's width (sign bit set).
      const auto live = static_cast<long long>(w - (nv - 1) * kW);
      const __m256i last = _mm256_cmpgt_epi64(
          _mm256_set1_epi64x(live), _mm256_set_epi64x(3, 2, 1, 0));
      tiles[nv - 1](k, alpha, a + i * lda, lda, b + j, ldb, beta,
                    c + i * ldc + j, ldc, last);
    }
    i += h;
  }
}

// FNV-1a: bit planes by shift + vpmovmskb on two 32-byte halves, and the
// 64 Horner lanes in 16 ymm multiplied with vpmuludq (AVX2 has no 64-bit
// low multiply).
void fnv_planes(const unsigned char* p, fnv::Planes& b) {
  __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
#pragma GCC unroll 8
  for (int k = 7; k >= 0; --k) {  // bit k sits in each byte's top bit
    const auto ml = static_cast<std::uint32_t>(_mm256_movemask_epi8(lo));
    const auto mh = static_cast<std::uint32_t>(_mm256_movemask_epi8(hi));
    b[k] = ml | static_cast<std::uint64_t>(mh) << 32;
    lo = _mm256_add_epi8(lo, lo);
    hi = _mm256_add_epi8(hi, hi);
  }
}

/// Byte i of the result is 0xff when bit i of m is set, else 0.
__m256i expand_bits(std::uint32_t m) {
  const __m256i spread = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit = _mm256_set1_epi64x(0x8040201008040201ll);
  const __m256i v = _mm256_shuffle_epi8(
      _mm256_set1_epi32(static_cast<int>(m)), spread);
  return _mm256_cmpeq_epi8(_mm256_and_si256(v, bit), bit);
}

class FnvPoly {
 public:
  /// d = (low ^ b) - low at each offset, with low rebuilt from its planes.
  void add(const fnv::Planes& low, const unsigned char* block) {
    alignas(32) std::int16_t d[fnv::kBlock];
    for (int h = 0; h < 2; ++h) {
      __m256i l = _mm256_setzero_si256();
#pragma GCC unroll 8
      for (int k = 0; k < 8; ++k) {
        const __m256i set =
            expand_bits(static_cast<std::uint32_t>(low[k] >> (32 * h)));
        l = _mm256_or_si256(
            l, _mm256_and_si256(set, _mm256_set1_epi8(static_cast<char>(1 << k))));
      }
      const __m256i x = _mm256_xor_si256(
          l, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 32 * h)));
      const __m256i d0 =
          _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm256_castsi256_si128(x)),
                           _mm256_cvtepu8_epi16(_mm256_castsi256_si128(l)));
      const __m256i d1 =
          _mm256_sub_epi16(_mm256_cvtepu8_epi16(_mm256_extracti128_si256(x, 1)),
                           _mm256_cvtepu8_epi16(_mm256_extracti128_si256(l, 1)));
      _mm256_store_si256(reinterpret_cast<__m256i*>(d + 32 * h), d0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(d + 32 * h + 16), d1);
    }
    // acc * P^64 mod 2^64 from 32-bit halves: lo*lo + ((hi*lo + lo*hi) << 32).
    constexpr std::uint64_t kStep = fnv::prime_pow(fnv::kBlock);
    const __m256i m_lo = _mm256_set1_epi64x(static_cast<long long>(kStep & 0xffffffffu));
    const __m256i m_hi = _mm256_set1_epi64x(static_cast<long long>(kStep >> 32));
#pragma GCC unroll 16
    for (std::size_t v = 0; v < fnv::kBlock / 4; ++v) {
      const __m256i a = acc_[v];
      const __m256i cross = _mm256_add_epi64(
          _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m_lo),
          _mm256_mul_epu32(a, m_hi));
      const __m256i prod = _mm256_add_epi64(_mm256_mul_epu32(a, m_lo),
                                            _mm256_slli_epi64(cross, 32));
      const __m256i dv = _mm256_cvtepi16_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(d + 4 * v)));
      acc_[v] = _mm256_add_epi64(prod, dv);
    }
  }

  std::uint64_t fold() const {
    alignas(32) std::uint64_t lanes[fnv::kBlock];
    for (std::size_t v = 0; v < fnv::kBlock / 4; ++v) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * v), acc_[v]);
    }
    std::uint64_t h = 0;
    for (std::size_t o = 0; o < fnv::kBlock; ++o) h += fnv::kLaneWeight[o] * lanes[o];
    return h;
  }

 private:
  __m256i acc_[fnv::kBlock / 4] = {};
};

std::uint64_t fnv_span(const unsigned char* p, std::size_t n,
                       std::uint64_t h) {
  return fnv::span<FnvPoly>(p, n, h, fnv_planes);
}

}  // namespace

bool avx2_compiled() { return true; }

const Kernels& avx2_kernels() {
  static const Kernels table = {
      dist2_rows, quad_block,  add_acc,    moments_acc,
      row_dots,   stencil_row, gemm_block, fnv_span,
  };
  return table;
}

}  // namespace prs::simd

#else  // !__AVX2__

namespace prs::simd {
bool avx2_compiled() { return false; }
const Kernels& avx2_kernels() { return scalar_kernels(); }
}  // namespace prs::simd

#endif
