// BLAS-subset kernels (reference implementations with exact flop counts).
//
// Flop accounting matters more than speed here: the device models charge
// virtual time from these counts, so each kernel documents its count and
// the tests assert it.
#pragma once

#include <cmath>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "exec/parallel.hpp"
#include "linalg/matrix.hpp"
#include "simd/dispatch.hpp"
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
/// deterministic tier keeps the scalar loop at every SIMD level; the
/// multi-accumulator fused kernel is only reachable through the explicit
/// fma opt-in (PRS_SIMD_FMA / --simd-fma), which waives bit-identity for
/// a documented ULP bound.
template <typename T>
T dot(std::span<const T> x, std::span<const T> y) {
  PRS_REQUIRE(x.size() == y.size(), "dot size mismatch");
  if constexpr (std::is_same_v<T, double>) {
    if (simd::fma_allowed()) {
      return simd::active_kernels().dot_fast(x.data(), y.data(), x.size());
    }
  }
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
  if constexpr (std::is_same_v<T, double>) {
    if (simd::fma_allowed()) {
      return simd::active_kernels().nrm2_fast(x.data(), x.size());
    }
  }
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
    // every SIMD level. The fused per-row dot is fma-tier only.
    if (a.rows() > 0) {
      const simd::Kernels& kn = simd::active_kernels();
      std::vector<double> acc(a.rows());
      if (simd::fma_allowed()) {
        for (std::size_t r = 0; r < a.rows(); ++r) {
          acc[r] = kn.dot_fast(a.row(r), x.data(), a.cols());
        }
      } else {
        kn.row_dots(a.row(0), a.cols(), a.rows(), a.cols(), x.data(),
                    acc.data());
      }
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

/// Blocked gemm (cache tiling); same result as gemm, same flop count.
/// Row blocks of C are disjoint, so they run in parallel on the host
/// thread pool; every C element is still produced by exactly one block in
/// the same k0/j0 order, hence results are byte-identical to the serial
/// loop for any thread count.
///
/// This form updates only rows [r0, r1) of C, from the same rows of A.
/// Each element's k order does not depend on which rows are computed, so
/// the rows get the bytes the whole-matrix call writes.
template <typename T>
void gemm_blocked_rows(T alpha, const Matrix<T>& a, const Matrix<T>& b,
                       T beta, Matrix<T>& c, std::size_t r0, std::size_t r1,
                       std::size_t block = 64) {
  PRS_REQUIRE(a.cols() == b.rows(), "gemm: inner dimensions must match");
  PRS_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm: output shape mismatch");
  PRS_REQUIRE(r0 <= r1 && r1 <= a.rows(), "gemm: row range out of bounds");
  PRS_REQUIRE(block > 0, "block size must be positive");
  const std::size_t n = b.cols(), kk = a.cols();
  const std::size_t row_blocks = (r1 - r0 + block - 1) / block;
  // Hoisted once: active_kernels() reads an atomic, and the level must not
  // change between chunks of one call anyway.
  const simd::Kernels& kn = simd::active_kernels();
  const bool fma = simd::fma_allowed();
  exec::parallel_for(0, row_blocks, 1, [&](std::size_t rb0, std::size_t rb1) {
    for (std::size_t rb = rb0; rb < rb1; ++rb) {
      const std::size_t i0 = r0 + rb * block;
      const std::size_t i1 = std::min(i0 + block, r1);
      for (std::size_t i = i0; i < i1; ++i) {
        T* crow = c.row(i);
        if constexpr (std::is_same_v<T, double>) {
          kn.scale(crow, beta, n);
        } else {
          for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
        }
      }
      for (std::size_t k0 = 0; k0 < kk; k0 += block) {
        const std::size_t k1 = std::min(k0 + block, kk);
        for (std::size_t j0 = 0; j0 < n; j0 += block) {
          const std::size_t j1 = std::min(j0 + block, n);
          for (std::size_t i = i0; i < i1; ++i) {
            T* crow = c.row(i);
            for (std::size_t k = k0; k < k1; ++k) {
              const T aik = alpha * a(i, k);
              const T* brow = b.row(k);
              // crow[j] += aik * brow[j] is element-wise (one product, one
              // add per C element, no cross-element reassociation), so the
              // vector form is bit-identical to the scalar loop.
              if constexpr (std::is_same_v<T, double>) {
                (fma ? kn.axpy_acc_fast : kn.axpy_acc)(crow + j0, brow + j0,
                                                       aik, j1 - j0);
              } else {
                for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
              }
            }
          }
        }
      }
    }
  });
}

/// gemm_blocked_rows over every row.
template <typename T>
void gemm_blocked(T alpha, const Matrix<T>& a, const Matrix<T>& b, T beta,
                  Matrix<T>& c, std::size_t block = 64) {
  gemm_blocked_rows(alpha, a, b, beta, c, 0, a.rows(), block);
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
