// Scalar reference implementations of every simd kernel — the ground
// truth the vector TUs must match bit-for-bit. Header-only so the
// AVX2/AVX-512 TUs can reuse them for tail lanes; the arithmetic is plain
// IEEE multiply/add in a fixed order, so recompiling them per-TU cannot
// change the results (those TUs use -ffp-contract=off, and reductions are
// never auto-reassociated without -ffast-math).
//
// The loops mirror the original app/linalg code they replaced (cmeans.cpp
// fuzzy_weights and linalg::squared_distance, gmm.cpp log_gaussian,
// blas.hpp gemm/gemv, stencil.cpp relax_rows) operation-for-operation:
// that is what makes PRS_SIMD=scalar byte-identical to the pre-simd runner.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace prs::simd::ref {

inline void dist2_rows(const double* x, std::size_t n, std::size_t d,
                       const double* centers, std::size_t m, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t c = 0; c < d; ++c) {
        const double diff = x[i * d + c] - centers[j * d + c];
        acc += diff * diff;
      }
      out[i * m + j] = acc;
    }
  }
}

inline void quad_block(const double* x, const double* mu_t,
                       const double* var_t, std::size_t m, std::size_t d,
                       double* out) {
  for (std::size_t j = 0; j < m; ++j) {
    double quad = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = x[c] - mu_t[c * m + j];
      quad += diff * diff / var_t[c * m + j];
    }
    out[j] = quad;
  }
}

inline void add_acc(double* acc, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

inline void moments_acc(double* p1, double* p2, const double* x, double r,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p1[i] += r * x[i];
    p2[i] += r * x[i] * x[i];  // (r*x)*x, the original gmm order
  }
}

inline void row_dots(const double* a, std::size_t lda, std::size_t rows,
                     std::size_t d, const double* x, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a + r * lda;
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
}

/// Row by row: the beta-scaled C row, then one axpy per p — the blas.hpp
/// gemm order every vector form reproduces element by element.
inline void gemm_block(std::size_t rows, std::size_t cols, std::size_t k,
                       double alpha, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double beta,
                       double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < rows; ++i) {
    double* crow = c + i * ldc;
    for (std::size_t j = 0; j < cols; ++j) crow[j] *= beta;
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = alpha * a[i * lda + p];
      const double* brow = b + p * ldb;
      for (std::size_t j = 0; j < cols; ++j) crow[j] += aip * brow[j];
    }
  }
}

inline double stencil_row(double* out, const double* mid, const double* up,
                          const double* down, std::size_t cols) {
  double max_update = 0.0;
  for (std::size_t c = 1; c + 1 < cols; ++c) {
    const double v = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
    out[c] = v;
    max_update = std::max(max_update, std::fabs(v - mid[c]));
  }
  return max_update;
}

/// The FNV-1a 64 prime.
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// The FNV-1a 64 byte loop from state `h`: the definition of the digest.
inline std::uint64_t fnv_bytes(const unsigned char* p, std::size_t n,
                               std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace prs::simd::ref
