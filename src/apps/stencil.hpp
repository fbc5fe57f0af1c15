// 2-D Jacobi heat stencil — the paper's PDE example (§V: "For SPMD
// applications, such as PDEs, FFT whose arithmetic intensities are in the
// middle range ... both GPU and CPU can make the non-trivial contribution
// to overall computation").
//
// Iterative 5-point Jacobi relaxation with fixed (Dirichlet) boundaries.
// PRS formulation: map tasks own row blocks of the grid and read one halo
// row on each side; per-iteration communication is the halo/update
// exchange, modeled as the iterative driver's state broadcast (DESIGN.md).
// With AI ~ 2.5 the analytic split gives the CPU ~20-25% of the rows —
// squarely between GEMV (97%) and the clustering apps (11%).
#pragma once

#include <memory>

#include "core/cluster.hpp"
#include "core/iterative.hpp"
#include "core/mapreduce_spec.hpp"
#include "linalg/matrix.hpp"

namespace prs::apps {

struct StencilParams {
  int max_iterations = 100;
  double epsilon = 1e-6;  // max per-cell update to declare convergence
};

struct StencilResult {
  linalg::MatrixD grid;
  double residual = 0.0;  // max |update| of the last iteration
  int iterations = 0;
};

/// One Jacobi sweep: interior cells become the average of their four
/// neighbours; boundary cells are fixed. Returns the max |update|.
double jacobi_step(const linalg::MatrixD& in, linalg::MatrixD& out);

/// Serial reference relaxation.
StencilResult stencil_serial(const linalg::MatrixD& initial,
                             const StencilParams& params);

/// Cost model: ~5 flops per interior cell per sweep; element-counted AI.
double stencil_flops_per_row(std::size_t cols);
double stencil_arithmetic_intensity();

struct StencilState {
  linalg::MatrixD grid;  // current iterate (rows x cols)
};

/// Key = first interior row of the block; value = updated rows plus the
/// block's max |update| appended as the final element.
using StencilSpec = core::MapReduceSpec<long, std::vector<double>>;

StencilSpec stencil_spec(std::shared_ptr<StencilState> state,
                         std::size_t cols);

/// Checkpoint codec over the iteration-carried state (the grid plus the
/// running residual / iteration count when the pointers are set).
ckpt::StateCodec stencil_state_codec(std::shared_ptr<StencilState> state,
                                     double* residual = nullptr,
                                     int* iterations = nullptr);

/// Distributed relaxation on the cluster; numerically identical to
/// stencil_serial. At pipeline_depth > 1 (and no faults/checkpointing,
/// functional mode) this routes to stencil_graph.
StencilResult stencil_prs(core::Cluster& cluster,
                          const linalg::MatrixD& initial,
                          const StencilParams& params,
                          const core::JobConfig& cfg,
                          core::JobStats* stats_out = nullptr,
                          const ckpt::CheckpointConfig* checkpoint = nullptr);

/// Wavefront halo-graph relaxation — the task-graph showcase shape. Each
/// iteration's row block depends only on its three neighbour blocks of the
/// previous iteration (cross-rank neighbours through explicit halo
/// send/recv nodes), so fast blocks run up to `pipeline_depth` iterations
/// ahead of slow ones instead of meeting at a global per-iteration barrier.
/// Convergence is checked by per-iteration retire nodes over the exact
/// block-residual max; Jacobi is cell-deterministic, so grid and iteration
/// count are byte-identical to stencil_serial / stencil_prs for any depth.
/// Like any job it pays the startup constant once (cfg.charge_job_startup)
/// and passes cfg.stage_gate before each window of sweeps. Requires
/// functional mode; faults and checkpointing take the stage path.
StencilResult stencil_graph(core::Cluster& cluster,
                            const linalg::MatrixD& initial,
                            const StencilParams& params,
                            const core::JobConfig& cfg,
                            core::JobStats* stats_out = nullptr);

namespace stencil_detail {
/// Relaxes interior rows [begin, end) of `in` into per-row output vectors;
/// returns the block's max |update| (exact for any thread count). Shared by
/// the map closures and the halo-graph block bodies.
double relax_rows(const linalg::MatrixD& in, std::size_t begin,
                  std::size_t end, std::vector<double>& out);
}  // namespace stencil_detail

}  // namespace prs::apps
