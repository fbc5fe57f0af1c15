// AVX-512 kernel table (8-wide). Compiled with -mavx512f -mavx512dq
// -mavx512bw -ffp-contract=off; falls back to the scalar table when the
// compiler lacks the flags. Same lane-per-output determinism argument as
// the AVX2 TU.
#include "simd/tables.hpp"

#include "simd/scalar_ref.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__)
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "simd/fnv_bitslice.hpp"

namespace prs::simd {
namespace {

constexpr std::size_t kW = 8;  // doubles per __m512d

void dist2_block(const double* x, const double* ct, std::size_t m,
                 std::size_t d, double* out) {
  std::size_t j = 0;
  for (; j + kW <= m; j += kW) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t c = 0; c < d; ++c) {
      const __m512d xc = _mm512_set1_pd(x[c]);
      const __m512d cc = _mm512_loadu_pd(ct + c * m + j);
      const __m512d diff = _mm512_sub_pd(xc, cc);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
    }
    _mm512_storeu_pd(out + j, acc);
  }
  for (; j < m; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = x[c] - ct[c * m + j];
      acc += diff * diff;
    }
    out[j] = acc;
  }
}

void quad_block(const double* x, const double* mu_t, const double* var_t,
                std::size_t m, std::size_t d, double* out) {
  std::size_t j = 0;
  for (; j + kW <= m; j += kW) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t c = 0; c < d; ++c) {
      const __m512d xc = _mm512_set1_pd(x[c]);
      const __m512d mu = _mm512_loadu_pd(mu_t + c * m + j);
      const __m512d var = _mm512_loadu_pd(var_t + c * m + j);
      const __m512d diff = _mm512_sub_pd(xc, mu);
      acc = _mm512_add_pd(acc,
                          _mm512_div_pd(_mm512_mul_pd(diff, diff), var));
    }
    _mm512_storeu_pd(out + j, acc);
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

void axpy_acc(double* acc, const double* x, double w, std::size_t n) {
  const __m512d wv = _mm512_set1_pd(w);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m512d a = _mm512_loadu_pd(acc + i);
    const __m512d xv = _mm512_loadu_pd(x + i);
    _mm512_storeu_pd(acc + i, _mm512_add_pd(a, _mm512_mul_pd(wv, xv)));
  }
  for (; i < n; ++i) acc[i] += w * x[i];
}

void add_acc(double* acc, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m512d a = _mm512_loadu_pd(acc + i);
    _mm512_storeu_pd(acc + i, _mm512_add_pd(a, _mm512_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void moments_acc(double* p1, double* p2, const double* x, double r,
                 std::size_t n) {
  const __m512d rv = _mm512_set1_pd(r);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    const __m512d rx = _mm512_mul_pd(rv, xv);
    _mm512_storeu_pd(p1 + i, _mm512_add_pd(_mm512_loadu_pd(p1 + i), rx));
    _mm512_storeu_pd(
        p2 + i, _mm512_add_pd(_mm512_loadu_pd(p2 + i), _mm512_mul_pd(rx, xv)));
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
    const double* rp[kW];
    for (std::size_t l = 0; l < kW; ++l) rp[l] = a + (r + l) * lda;
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t c = 0; c < d; ++c) {
      const __m512d av =
          _mm512_set_pd(rp[7][c], rp[6][c], rp[5][c], rp[4][c], rp[3][c],
                        rp[2][c], rp[1][c], rp[0][c]);
      const __m512d xv = _mm512_set1_pd(x[c]);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(av, xv));
    }
    _mm512_storeu_pd(out + r, acc);
  }
  if (r < rows) ref::row_dots(a + r * lda, lda, rows - r, d, x, out + r);
}

double stencil_row(double* out, const double* mid, const double* up,
                   const double* down, std::size_t cols) {
  const __m512d quarter = _mm512_set1_pd(0.25);
  __m512d vmax = _mm512_setzero_pd();
  std::size_t c = 1;
  if (cols >= 2) {
    for (; c + kW <= cols - 1; c += kW) {
      const __m512d sum = _mm512_add_pd(
          _mm512_add_pd(
              _mm512_add_pd(_mm512_loadu_pd(up + c), _mm512_loadu_pd(down + c)),
              _mm512_loadu_pd(mid + c - 1)),
          _mm512_loadu_pd(mid + c + 1));
      const __m512d v = _mm512_mul_pd(quarter, sum);
      _mm512_storeu_pd(out + c, v);
      const __m512d diff = _mm512_abs_pd(_mm512_sub_pd(v, _mm512_loadu_pd(mid + c)));
      // Masked form with an explicit src operand: GCC 12's plain
      // _mm512_max_pd routes through _mm512_undefined_pd and trips
      // -Wmaybe-uninitialized on the header's self-initialized temp.
      vmax = _mm512_mask_max_pd(vmax, static_cast<__mmask8>(0xff), vmax, diff);
    }
  }
  double lanes[kW];
  _mm512_storeu_pd(lanes, vmax);
  double max_update = lanes[0];
  for (std::size_t l = 1; l < kW; ++l) max_update = std::max(max_update, lanes[l]);
  for (; c + 1 < cols; ++c) {
    const double v = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
    out[c] = v;
    max_update = std::max(max_update, std::fabs(v - mid[c]));
  }
  return max_update;
}

// gemm: an R x V tile — R rows of C, V vectors of kW columns each — stays
// in R*V registers for the whole p loop (8 x 3 = 24 of the 32 zmm at full
// size, leaving room for the B row and the broadcast A value). `last`
// marks the lanes of the last vector inside the block; the other lanes
// compute on zeros and are never stored. Per lane the operations are
// ref::gemm_block's: c * beta, then c + (alpha * a) * b in ascending p,
// unfused.
constexpr std::size_t kMr = 8;         // tile rows
constexpr std::size_t kNv = 3;         // tile vectors
constexpr std::size_t kNr = kNv * kW;  // tile columns

template <std::size_t R, std::size_t V>
void gemm_tile(std::size_t k, double alpha, const double* a, std::size_t lda,
               const double* b, std::size_t ldb, double beta, double* c,
               std::size_t ldc, __mmask8 last) {
  const auto load = [last](const double* p, std::size_t v) {
    return v + 1 < V ? _mm512_loadu_pd(p) : _mm512_maskz_loadu_pd(last, p);
  };
  const __m512d bv = _mm512_set1_pd(beta);
  __m512d acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = _mm512_mul_pd(load(c + r * ldc + v * kW, v), bv);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb;
    __m512d bl[V];
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v) bl[v] = load(bp + v * kW, v);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d ar = _mm512_set1_pd(alpha * a[r * lda + p]);
#pragma GCC unroll 3
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_add_pd(acc[r][v], _mm512_mul_pd(ar, bl[v]));
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v) {
      double* cp = c + r * ldc + v * kW;
      if (v + 1 < V) {
        _mm512_storeu_pd(cp, acc[r][v]);
      } else {
        _mm512_mask_storeu_pd(cp, last, acc[r][v]);
      }
    }
  }
}

using GemmTile = void (*)(std::size_t, double, const double*, std::size_t,
                          const double*, std::size_t, double, double*,
                          std::size_t, __mmask8);

// [log2 rows][vectors - 1]: the full tile and the edge tiles. A block's
// last rows run in tiles of the largest heights that fit (4, 2, 1).
constexpr GemmTile kGemmTiles[4][kNv] = {
    {gemm_tile<1, 1>, gemm_tile<1, 2>, gemm_tile<1, 3>},
    {gemm_tile<2, 1>, gemm_tile<2, 2>, gemm_tile<2, 3>},
    {gemm_tile<4, 1>, gemm_tile<4, 2>, gemm_tile<4, 3>},
    {gemm_tile<8, 1>, gemm_tile<8, 2>, gemm_tile<8, 3>},
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
      const auto last =
          static_cast<__mmask8>((1u << (w - (nv - 1) * kW)) - 1u);
      tiles[nv - 1](k, alpha, a + i * lda, lda, b + j, ldb, beta,
                    c + i * ldc + j, ldc, last);
    }
    i += h;
  }
}

// FNV-1a: one vptestmb per bit plane, and the 64 Horner lanes in 8 zmm
// multiplied with vpmullq.
void fnv_planes(const unsigned char* p, fnv::Planes& b) {
  const __m512i v = _mm512_loadu_si512(p);
#pragma GCC unroll 8
  for (int k = 0; k < 8; ++k) {
    b[k] = _mm512_test_epi8_mask(v, _mm512_set1_epi8(static_cast<char>(1 << k)));
  }
}

class FnvPoly {
 public:
  /// d = (low ^ b) - low at each offset, with low rebuilt from its planes.
  void add(const fnv::Planes& low, const unsigned char* block) {
    __m512i l = _mm512_setzero_si512();
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) {
      l = _mm512_mask_add_epi8(l, low[k], l,
                               _mm512_set1_epi8(static_cast<char>(1 << k)));
    }
    alignas(64) unsigned char lb[fnv::kBlock];
    _mm512_store_si512(lb, l);
    const __m512i step = _mm512_set1_epi64(
        static_cast<long long>(fnv::prime_pow(fnv::kBlock)));
    // Zero-masked widening: GCC 12's unmasked form trips
    // -Wmaybe-uninitialized (see stencil_row).
    const auto widen = [](const unsigned char* q) {
      return _mm512_maskz_cvtepu8_epi64(
          static_cast<__mmask8>(0xff),
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q)));
    };
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) {
      const __m512i l64 = widen(lb + 8 * j);
      const __m512i b64 = widen(block + 8 * j);
      const __m512i d = _mm512_sub_epi64(_mm512_xor_si512(l64, b64), l64);
      acc_[j] = _mm512_add_epi64(_mm512_mullo_epi64(acc_[j], step), d);
    }
  }

  std::uint64_t fold() const {
    alignas(64) std::uint64_t lanes[fnv::kBlock];
    for (std::size_t j = 0; j < 8; ++j) _mm512_store_si512(lanes + 8 * j, acc_[j]);
    std::uint64_t h = 0;
    for (std::size_t o = 0; o < fnv::kBlock; ++o) h += fnv::kLaneWeight[o] * lanes[o];
    return h;
  }

 private:
  __m512i acc_[8] = {};
};

std::uint64_t fnv_span(const unsigned char* p, std::size_t n,
                       std::uint64_t h) {
  return fnv::span<FnvPoly>(p, n, h, fnv_planes);
}

}  // namespace

bool avx512_compiled() { return true; }

const Kernels& avx512_kernels() {
  static const Kernels table = {
      dist2_block, quad_block,  axpy_acc,    add_acc,
      moments_acc, row_dots,    stencil_row, gemm_block,
      fnv_span,
  };
  return table;
}

}  // namespace prs::simd

#else  // !__AVX512F__

namespace prs::simd {
bool avx512_compiled() { return false; }
const Kernels& avx512_kernels() { return scalar_kernels(); }
}  // namespace prs::simd

#endif
