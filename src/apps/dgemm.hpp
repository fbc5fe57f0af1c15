// DGEMM (dense matrix-matrix multiply) — the paper's canonical
// high-arithmetic-intensity application (Figure 4's right edge; §III.B.3.b
// uses "BLAS3, whose arithmetic intensity is O(N)" as the motivating case
// for the MinBs block-size rule, Eqs (10)-(11)).
//
// Decomposition: C = A * B with row-block striping of A; B is replicated
// on every node (like GEMV's x vector). A map task owns a block of rows;
// its arithmetic intensity *depends on the block size* —
//     AI(R rows) = 2*R*N*K / (R*K + K*N + R*N)
// (read the A block and all of B, write the C block) — which is exactly
// the size-dependent Fag the analytic scheduler inverts to find MinBs and
// the stream count.
#pragma once

#include <memory>

#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "core/mapreduce_spec.hpp"
#include "linalg/matrix.hpp"

namespace prs::apps {

/// AI of a row-block map task: `block_rows` rows of an (M x K) * (K x N)
/// product.
double dgemm_block_ai(double block_rows, std::size_t k, std::size_t n);

/// Total flops of the product.
double dgemm_flops(std::size_t m, std::size_t n, std::size_t k);

struct DgemmState {
  const linalg::MatrixD* a = nullptr;  // M x K
  const linalg::MatrixD* b = nullptr;  // K x N
  /// M x N. When set, each payload writes its rows of C here and emits an
  /// empty block; when null, the block carries the rows. Set before
  /// dgemm_spec, it also gives the spec a cpu_map_run that computes a run
  /// of contiguous blocks as one gemm.
  linalg::MatrixD* c = nullptr;
};

/// Key = first row of the C block; value = the computed rows (row-major),
/// or an empty matrix when the state's `c` already holds them.
using DgemmSpec = core::MapReduceSpec<long, linalg::MatrixD>;

DgemmSpec dgemm_spec(std::shared_ptr<DgemmState> state, std::size_t k,
                     std::size_t n);

/// Distributed C = A * B; returns C (empty in modeled mode).
linalg::MatrixD dgemm_prs(core::Cluster& cluster, const linalg::MatrixD& a,
                          const linalg::MatrixD& b,
                          const core::JobConfig& cfg,
                          core::JobStats* stats_out = nullptr);

/// Paper-scale modeled run (no matrices allocated).
core::JobStats dgemm_prs_modeled(core::Cluster& cluster, std::size_t m,
                                 std::size_t n, std::size_t k,
                                 core::JobConfig cfg);

}  // namespace prs::apps
