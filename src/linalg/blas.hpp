// BLAS-subset kernels (reference implementations with exact flop counts).
//
// Flop accounting matters more than speed here: the device models charge
// virtual time from these counts, so each kernel documents its count and
// the tests assert it.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "exec/parallel.hpp"
#include "linalg/matrix.hpp"
#include "simd/kernels.hpp"

namespace prs::linalg {

/// y += alpha * x. Flops: 2n.
template <typename T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) {
  PRS_REQUIRE(x.size() == y.size(), "axpy size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// Dot product. Flops: 2n.
///
/// A single running sum cannot vectorize without reassociating, so the
/// scalar loop runs at every SIMD level.
template <typename T>
T dot(std::span<const T> x, std::span<const T> y) {
  PRS_REQUIRE(x.size() == y.size(), "dot size mismatch");
  T acc{};
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

/// Euclidean norm. Flops: 2n (+1 sqrt) — the scaling divides below are
/// bookkeeping, not counted, matching LAPACK's dnrm2 convention.
///
/// Scaled accumulation (LAPACK dnrm2 style): tracks the running maximum
/// magnitude `scale` and accumulates sum((x_i/scale)^2), so inputs near
/// 1e200 no longer overflow to inf when squared and inputs near 1e-200 no
/// longer underflow to 0.
/// Special-value contract (LAPACK dnrm2 parity): any NaN input yields NaN;
/// otherwise any +/-Inf input yields +Inf; signed zeros are skipped (they
/// contribute nothing and never become the scale).
template <typename T>
T nrm2(std::span<const T> x) {
  T scale{};   // largest |x_i| seen so far
  T ssq{1};    // sum of (x_i / scale)^2
  bool any = false;
  for (const T v : x) {
    if (v == T{}) continue;
    const T av = v < T{} ? -v : v;
    if (!any) {
      scale = av;
      ssq = T{1};
      any = true;
    } else if (scale < av) {
      const T r = scale / av;
      ssq = T{1} + ssq * r * r;
      scale = av;
    } else if (av == scale) {
      // av/scale would be exactly 1 for finite values, so adding 1
      // directly is bit-identical — and it keeps Inf inputs from
      // producing Inf/Inf = NaN (the norm of a vector containing an
      // infinity is +Inf, not NaN).
      ssq += T{1};
    } else {
      const T r = av / scale;
      ssq += r * r;
    }
  }
  if (!any) return T{};
  return scale * std::sqrt(ssq);
}

/// Squared Euclidean distance between two points. Flops: 3n.
template <typename T>
T squared_distance(std::span<const T> a, std::span<const T> b) {
  PRS_REQUIRE(a.size() == b.size(), "distance size mismatch");
  T acc{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    const T d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// y = alpha * A * x + beta * y for row-major A (M x N).
/// Flops: 2*M*N (+ 2*M for the beta/alpha combine).
template <typename T>
void gemv(T alpha, const Matrix<T>& a, std::span<const T> x, T beta,
          std::span<T> y) {
  PRS_REQUIRE(x.size() == a.cols(), "gemv: x size must equal cols");
  PRS_REQUIRE(y.size() == a.rows(), "gemv: y size must equal rows");
  if constexpr (std::is_same_v<T, double>) {
    // Lane-per-row: each output row accumulates in the same ascending-c
    // mul+add order as the scalar loop, so row_dots is bit-identical at
    // every SIMD level.
    if (a.rows() > 0) {
      std::vector<double> acc(a.rows());
      simd::active_kernels().row_dots(a.row(0), a.cols(), a.rows(), a.cols(),
                                      x.data(), acc.data());
      for (std::size_t r = 0; r < a.rows(); ++r) {
        y[r] = alpha * acc[r] + beta * y[r];
      }
    }
    return;
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const T* row = a.row(r);
    T acc{};
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = alpha * acc + beta * y[r];
  }
}

/// Workload helper: flops of gemv on an MxN matrix.
constexpr double gemv_flops(double m, double n) { return 2.0 * m * n; }

/// C = alpha * A * B + beta * C, row-major, naive triple loop (ikj order).
/// Flops: 2*M*N*K.
template <typename T>
void gemm(T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
          Matrix<T>& c) {
  PRS_REQUIRE(a.cols() == b.rows(), "gemm: inner dimensions must match");
  PRS_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm: output shape mismatch");
  for (auto& v : c.storage()) v *= beta;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    T* crow = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const T aik = alpha * a(i, k);
      const T* brow = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

/// Workload helper: flops of gemm (MxK)*(KxN).
constexpr double gemm_flops(double m, double n, double k) {
  return 2.0 * m * n * k;
}

/// Rows and columns of C in one host-pool chunk of gemm_blocked_rows:
/// enough work (2 * 32 * 192 * K flops) to amortize a hand-off, few enough
/// rows that a block of a couple of hundred rows still makes a chunk per
/// lane and more. 192 columns is a whole number of tiles at every SIMD
/// level (DESIGN.md §4j).
inline constexpr std::size_t kGemmChunkRows = 32;
inline constexpr std::size_t kGemmChunkCols = 192;

/// C = alpha * A * B + beta * C on rows [r0, r1) of C, from the same rows
/// of A; same result as gemm, same flop count. The rows split into a fixed
/// grid of kGemmChunkRows x kGemmChunkCols chunks of C that run on the
/// host pool, each one simd gemm_block call. Every element gets gemm's
/// operations in gemm's order whatever the chunk, tile, SIMD level or
/// thread count, so the rows get the bytes of plain gemm and of the
/// whole-matrix call.
inline void gemm_blocked_rows(double alpha, const MatrixD& a,
                              const MatrixD& b, double beta, MatrixD& c,
                              std::size_t r0, std::size_t r1) {
  PRS_REQUIRE(a.cols() == b.rows(), "gemm: inner dimensions must match");
  PRS_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm: output shape mismatch");
  PRS_REQUIRE(r0 <= r1 && r1 <= a.rows(), "gemm: row range out of bounds");
  const std::size_t n = b.cols(), kk = a.cols();
  const std::size_t row_chunks = exec::chunk_count(r1 - r0, kGemmChunkRows);
  const std::size_t chunks = row_chunks * exec::chunk_count(n, kGemmChunkCols);
  // Hoisted once: active_kernels() reads an atomic, and the level must not
  // change between chunks of one call anyway.
  const simd::Kernels& kn = simd::active_kernels();
  // Column-major chunk order: the chunks a lane claims in a row share a
  // K x 192 panel of B.
  exec::parallel_for(0, chunks, 1, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t i0 = r0 + (t % row_chunks) * kGemmChunkRows;
      const std::size_t j0 = (t / row_chunks) * kGemmChunkCols;
      kn.gemm_block(std::min(kGemmChunkRows, r1 - i0),
                    std::min(kGemmChunkCols, n - j0), kk, alpha,
                    a.data() + i0 * kk, kk, b.data() + j0, n, beta,
                    c.data() + i0 * n + j0, n);
    }
  });
}

/// gemm_blocked_rows over every row.
inline void gemm_blocked(double alpha, const MatrixD& a, const MatrixD& b,
                         double beta, MatrixD& c) {
  gemm_blocked_rows(alpha, a, b, beta, c, 0, a.rows());
}

/// Transpose. No flops (data movement only).
template <typename T>
Matrix<T> transpose(const Matrix<T>& a) {
  Matrix<T> t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  }
  return t;
}

}  // namespace prs::linalg
