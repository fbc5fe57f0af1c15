// The prs::simd kernel table: vectorized forms of the hot inner loops of
// the eight applications and the linalg BLAS subset.
//
// Layout convention: dist2_rows reads the points and the centers as they
// are stored, row-major, and puts points in the vector lanes (it transposes
// each block of point rows itself), so a lane's sum runs over the
// dimensions of one point. quad_block takes the small model matrix (means /
// variances, M x D row-major everywhere else) packed COLUMN-major —
// mu_t[c * m + j] = means(j, c) — so that lane j of a vector register walks
// component j while consecutive lanes load contiguous memory;
// pack_transposed() below builds that layout. Packing and transposing are
// pure data movement, so results are bit-identical to reading rows
// directly.
//
// Determinism: every kernel accumulates each output element in exactly
// the scalar reference order (lane-per-output, separate multiply and add,
// -ffp-contract=off in the vector TUs), so scalar / AVX2 / AVX-512 produce
// the same bytes. The FNV-1a entry is integer-only, so every level
// computes its exact value by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/dispatch.hpp"

namespace prs::simd {

struct Kernels {
  /// out[i*m + j] = sum_c (x[i*d + c] - centers[j*d + c])^2 for the n
  /// row-major points x and the m row-major centers: the cmeans / kmeans
  /// distances (linalg::squared_distance of every point against every
  /// center), each summed from 0.0 over ascending c.
  void (*dist2_rows)(const double* x, std::size_t n, std::size_t d,
                     const double* centers, std::size_t m, double* out);

  /// out[j] = sum_c (x[c] - mu_t[c*m+j])^2 / var_t[c*m+j] — the GMM
  /// Mahalanobis quadratic term (diagonal covariance, Eq (15)).
  void (*quad_block)(const double* x, const double* mu_t,
                     const double* var_t, std::size_t m, std::size_t d,
                     double* out);

  /// acc[i] += x[i] (kmeans per-cluster sums).
  void (*add_acc)(double* acc, const double* x, std::size_t n);

  /// p1[i] += r * x[i]; p2[i] += (r * x[i]) * x[i] (GMM M-step moments —
  /// note the second product uses the first, matching the scalar order).
  void (*moments_acc)(double* p1, double* p2, const double* x, double r,
                      std::size_t n);

  /// out[r] = dot(a + r*lda, x) for r in [0, rows): lane-per-row gemv.
  /// Each row's accumulation runs in ascending-c scalar order (the lanes
  /// hold different rows), so every out[r] is bit-identical to the scalar
  /// dot of that row.
  void (*row_dots)(const double* a, std::size_t lda, std::size_t rows,
                   std::size_t d, const double* x, double* out);

  /// Jacobi relaxation of one interior row: for c in [1, cols-1)
  ///   out[c] = 0.25 * (((up[c] + down[c]) + mid[c-1]) + mid[c+1])
  /// returns max_c |out[c] - mid[c]| (max is exact, order-independent).
  /// Boundary cells out[0] / out[cols-1] are the caller's.
  double (*stencil_row)(double* out, const double* mid, const double* up,
                        const double* down, std::size_t cols);

  /// One rows x cols block of C = alpha * A * B + beta * C (row-major,
  /// leading dimensions lda/ldb/ldc). Every element gets c * beta, then
  /// c + (alpha * a(i,p)) * b(p,j) for p = 0, 1, ..., k-1, each product and
  /// sum rounded on its own: the operations of a beta-scaled row followed
  /// by one axpy per p, so the bytes do not depend on the level or on how
  /// a caller splits C into blocks. The vector forms hold a tile of C in
  /// registers for the whole p loop (tile shapes: DESIGN.md §4j).
  void (*gemm_block)(std::size_t rows, std::size_t cols, std::size_t k,
                     double alpha, const double* a, std::size_t lda,
                     const double* b, std::size_t ldb, double beta,
                     double* c, std::size_t ldc);

  /// The FNV-1a 64 state after p[0, n), started from state `h`: the byte
  /// loop's value at every level. DESIGN.md §4j gives the identities and
  /// the bit-sliced vector forms.
  std::uint64_t (*fnv_span)(const unsigned char* p, std::size_t n,
                            std::uint64_t h);
};

/// The kernel table for one level (scalar table when the level's TU was
/// compiled without its instruction set).
const Kernels& kernels_for(Level level);

/// Table for active_level().
inline const Kernels& active_kernels() { return kernels_for(active_level()); }

/// Packs a row-major (rows x cols) block into the column-major lane
/// layout quad_block reads:
/// out[c * rows + j] = a[j * cols + c].
inline void pack_transposed(const double* a, std::size_t rows,
                            std::size_t cols, std::vector<double>& out) {
  out.resize(rows * cols);
  for (std::size_t j = 0; j < rows; ++j) {
    for (std::size_t c = 0; c < cols; ++c) {
      out[c * rows + j] = a[j * cols + c];
    }
  }
}

}  // namespace prs::simd
