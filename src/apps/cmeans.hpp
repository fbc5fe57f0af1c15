// C-means (fuzzy k-means) — paper §IV.A.1, Eqs (12)-(14).
//
// Provided in three forms:
//   * cmeans_serial      — reference implementation (correctness oracle);
//   * cmeans_spec        — the heterogeneous MapReduce formulation for the
//                          PRS runtime (map emits per-cluster partial sums,
//                          combine adds them, the iterative driver updates
//                          centers);
//   * cmeans_prs         — end-to-end distributed run on a Cluster.
//
// Cost model (paper Table 5): flops/point = 5*M*D, arithmetic intensity
// Ac = Ag = 5*M, with the event matrix cached in GPU memory across
// iterations (gpu_data_cached = true).
//
// Convergence: the paper stops on max |u_ij^(k+1) - u_ij^(k)| < eps, which
// needs the full N x M membership matrix; the distributed form uses the
// equivalent max-center-movement criterion instead (documented substitution,
// DESIGN.md) — both serial and PRS versions use it so results align.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/iterative.hpp"
#include "core/mapreduce_spec.hpp"
#include "linalg/matrix.hpp"

namespace prs::apps {

struct CmeansParams {
  int clusters = 5;          // M
  double fuzziness = 2.0;    // m in Eq (12); must be > 1
  int max_iterations = 100;
  double epsilon = 1e-4;     // max center movement to declare convergence
  std::uint64_t seed = 42;   // random initial centers (paper §IV.A.1)
};

struct CmeansResult {
  linalg::MatrixD centers;      // M x D
  std::vector<int> assignment;  // hard assignment: argmax_j u_ij
  double objective = 0.0;       // J_m (Eq (12))
  int iterations = 0;
};

/// Reference implementation of Eqs (12)-(14) on one host.
CmeansResult cmeans_serial(const linalg::MatrixD& points,
                           const CmeansParams& params);

/// Cost model helpers (paper Table 5 conventions; see DESIGN.md on the
/// element-counted byte convention).
double cmeans_flops_per_point(int clusters, std::size_t dims);
double cmeans_arithmetic_intensity(int clusters);

/// Shared state captured by the spec's map lambdas; the iterative driver's
/// on_iteration callback updates `centers` between rounds.
struct CmeansState {
  const linalg::MatrixD* points = nullptr;
  linalg::MatrixD centers;
  double fuzziness = 2.0;
};

/// Intermediate value: per-cluster [weighted x sums (D), weight sum,
/// objective partial] — combine adds elementwise.
using CmeansSpec = core::MapReduceSpec<int, std::vector<double>>;

/// Builds the PRS spec over `state` (state->points/centers must be set).
CmeansSpec cmeans_spec(std::shared_ptr<CmeansState> state,
                       const CmeansParams& params, std::size_t dims);

/// Checkpoint codec over the iteration-carried state: the centers matrix
/// plus fuzziness (validated on restore) and, when the pointers are set,
/// the running objective / iteration count so a resumed run reports them
/// without recomputing.
ckpt::StateCodec cmeans_state_codec(std::shared_ptr<CmeansState> state,
                                    double* objective = nullptr,
                                    int* iterations = nullptr);

/// Runs distributed C-means on the cluster; numerically equivalent to
/// cmeans_serial when cfg.mode == kFunctional (identical center updates in
/// a different summation order). `checkpoint` (optional) enables the
/// iterative driver's checkpoint/restart via cmeans_state_codec.
CmeansResult cmeans_prs(core::Cluster& cluster,
                        const linalg::MatrixD& points,
                        const CmeansParams& params,
                        const core::JobConfig& cfg,
                        core::JobStats* stats_out = nullptr,
                        const ckpt::CheckpointConfig* checkpoint = nullptr);

/// Picks `clusters` distinct random points as initial centers.
linalg::MatrixD initial_centers(const linalg::MatrixD& points, int clusters,
                                std::uint64_t seed);

/// Index of each point's nearest center: the first j with the least
/// squared distance (0 when every distance is NaN or +inf). This is
/// C-means' hard assignment (argmax_j u_ij == argmin_j ||x_i - c_j|| for any
/// fuzziness > 1) and K-means' assignment. Runs on the host thread pool;
/// the same bytes at any thread count and SIMD level.
std::vector<int> nearest_centers(const linalg::MatrixD& points,
                                 const linalg::MatrixD& centers);

/// The map kernel: accumulates points [begin, end) into per-cluster
/// partials [weighted x sums (D), weight sum, objective partial]. Runs on
/// the host thread pool (exec/parallel.hpp) with fixed chunking, so the
/// result is byte-identical for any PRS_HOST_THREADS. Exposed for the
/// host-threads ablation bench, the pthread baseline and the Eq (13)
/// limit-case regression tests.
void cmeans_accumulate(const linalg::MatrixD& points,
                       const linalg::MatrixD& centers, double fuzziness,
                       std::size_t begin, std::size_t end,
                       std::vector<std::vector<double>>& partials);

/// Paper-scale run in ExecutionMode::kModeled: charges the full workload's
/// virtual time without materializing the point matrix (benches for
/// Table 3 / Figure 6). Always runs exactly params.max_iterations rounds.
core::JobStats cmeans_prs_modeled(core::Cluster& cluster,
                                  std::size_t n_points, std::size_t dims,
                                  const CmeansParams& params,
                                  core::JobConfig cfg);

}  // namespace prs::apps
