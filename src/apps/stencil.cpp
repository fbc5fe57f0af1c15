#include "apps/stencil.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"
#include "simd/kernels.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain: one row is ~5*cols flops; 64 rows per chunk.
constexpr std::size_t kRowGrain = 64;

void validate_grid(const linalg::MatrixD& grid) {
  PRS_REQUIRE(grid.rows() >= 3 && grid.cols() >= 3,
              "stencil needs at least a 3x3 grid");
}

}  // namespace

namespace stencil_detail {

double relax_rows(const linalg::MatrixD& in, std::size_t begin,
                  std::size_t end, std::vector<double>& out) {
  const std::size_t cols = in.cols();
  out.assign((end - begin) * cols, 0.0);
  const simd::Kernels& kn = simd::active_kernels();
  // Jacobi reads only the previous grid: every output row is disjoint and
  // max() is exact, so the host-pool version is byte-identical to the
  // serial sweep for any thread count. The dispatched row kernel keeps the
  // ((up+down)+left)+right association of the scalar expression, and max
  // over non-negative |v - mid| is order-free, so vector rows match too.
  return exec::parallel_reduce(
      begin, end, kRowGrain, 0.0,
      [&](std::size_t rb, std::size_t re, double max_update) {
        for (std::size_t r = rb; r < re; ++r) {
          double* row_out = out.data() + (r - begin) * cols;
          // Boundary columns stay fixed.
          row_out[0] = in(r, 0);
          row_out[cols - 1] = in(r, cols - 1);
          const double row_max =
              kn.stencil_row(row_out, in.row(r), in.row(r - 1), in.row(r + 1),
                             cols);
          max_update = std::max(max_update, row_max);
        }
        return max_update;
      },
      [](double a, double b) { return std::max(a, b); });
}

}  // namespace stencil_detail

namespace {
using stencil_detail::relax_rows;
}  // namespace

double jacobi_step(const linalg::MatrixD& in, linalg::MatrixD& out) {
  validate_grid(in);
  PRS_REQUIRE(out.rows() == in.rows() && out.cols() == in.cols(),
              "output grid shape mismatch");
  out = in;  // boundaries copied
  std::vector<double> rows;
  const double residual = relax_rows(in, 1, in.rows() - 1, rows);
  for (std::size_t r = 1; r + 1 < in.rows(); ++r) {
    for (std::size_t c = 0; c < in.cols(); ++c) {
      out(r, c) = rows[(r - 1) * in.cols() + c];
    }
  }
  return residual;
}

StencilResult stencil_serial(const linalg::MatrixD& initial,
                             const StencilParams& params) {
  validate_grid(initial);
  PRS_REQUIRE(params.max_iterations >= 1, "need at least one iteration");
  StencilResult res;
  res.grid = initial;
  linalg::MatrixD next(initial.rows(), initial.cols());
  for (int it = 0; it < params.max_iterations; ++it) {
    res.residual = jacobi_step(res.grid, next);
    std::swap(res.grid, next);
    res.iterations = it + 1;
    if (res.residual < params.epsilon) break;
  }
  return res;
}

double stencil_flops_per_row(std::size_t cols) {
  // 3 adds + 1 multiply + 1 compare per interior cell.
  return 5.0 * static_cast<double>(cols);
}

double stencil_arithmetic_intensity() {
  // ~5 flops per touched element, halved by reading both the row and its
  // halos: element-counted AI ~ 2.5 — the paper's "middle range".
  return 2.5;
}

StencilSpec stencil_spec(std::shared_ptr<StencilState> state,
                         std::size_t cols) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  StencilSpec spec;
  spec.name = "stencil";
  spec.cpu_map = [state](const core::InputSlice& s,
                         core::Emitter<long, std::vector<double>>& e) {
    // Items are interior rows: item i maps to grid row i + 1.
    std::vector<double> rows;
    const double residual =
        relax_rows(state->grid, s.begin + 1, s.end + 1, rows);
    rows.push_back(residual);  // block residual rides along
    e.emit(static_cast<long>(s.begin), std::move(rows));
  };
  spec.gpu_map = spec.cpu_map;
  spec.modeled_map = [](const core::InputSlice& s,
                        core::Emitter<long, std::vector<double>>& e) {
    e.emit(static_cast<long>(s.begin), std::vector<double>{0.0});
  };
  spec.combine = [](const std::vector<double>& a,
                    const std::vector<double>& b) {
    return a.size() >= b.size() ? a : b;  // unique keys: defensive
  };

  spec.cpu_flops_per_item = stencil_flops_per_row(cols);
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  spec.ai_cpu = stencil_arithmetic_intensity();
  spec.ai_gpu = spec.ai_cpu;
  // The grid lives on the GPU across sweeps; halo rows move per iteration.
  spec.gpu_data_cached = true;
  spec.item_bytes = static_cast<double>(cols);
  spec.pair_bytes = static_cast<double>(cols);
  spec.gpu_item_d2h_bytes = static_cast<double>(cols);  // updated row back
  spec.reduce_flops_per_pair = 1.0;
  spec.efficiency = {0.5, 0.5, 0.5, 0.5};
  return spec;
}

ckpt::StateCodec stencil_state_codec(std::shared_ptr<StencilState> state,
                                     double* residual, int* iterations) {
  ckpt::StateCodec codec;
  codec.tag = "stencil";
  codec.encode = [state, residual, iterations](ckpt::Writer& w) {
    ckpt::put_matrix(w, state->grid);
    w.f64(residual != nullptr ? *residual : 0.0);
    w.i32(iterations != nullptr ? *iterations : 0);
  };
  codec.decode = [state, residual, iterations](ckpt::Reader& r) {
    linalg::MatrixD grid;
    ckpt::get_matrix(r, grid);
    PRS_REQUIRE(grid.rows() == state->grid.rows() &&
                    grid.cols() == state->grid.cols(),
                "stencil checkpoint grid shape does not match this run");
    state->grid = std::move(grid);
    const double res = r.f64();
    const int iters = r.i32();
    if (residual != nullptr) *residual = res;
    if (iterations != nullptr) *iterations = iters;
  };
  return codec;
}

StencilResult stencil_prs(core::Cluster& cluster,
                          const linalg::MatrixD& initial,
                          const StencilParams& params,
                          const core::JobConfig& cfg,
                          core::JobStats* stats_out,
                          const ckpt::CheckpointConfig* checkpoint) {
  validate_grid(initial);
  PRS_REQUIRE(params.max_iterations >= 1, "need at least one iteration");
  // The wavefront halo graph replaces the per-iteration MapReduce rounds
  // when iterations are pipelined. Fault injection and checkpointing need
  // the iterative driver's cut points, so they stay on the per-iteration
  // path (as does modeled mode, whose map bodies are empty).
  if (cfg.pipeline_depth > 1 &&
      cfg.mode == core::ExecutionMode::kFunctional &&
      cfg.faults == nullptr && checkpoint == nullptr) {
    return stencil_graph(cluster, initial, params, cfg, stats_out);
  }
  const std::size_t cols = initial.cols();
  const std::size_t interior_rows = initial.rows() - 2;

  auto state = std::make_shared<StencilState>();
  state->grid = initial;
  StencilSpec spec = stencil_spec(state, cols);

  StencilResult res;
  auto on_iteration =
      [&](int iter, const std::map<long, std::vector<double>>& out) {
        if (cfg.mode == core::ExecutionMode::kModeled) return true;
        double residual = 0.0;
        for (const auto& [start, rows] : out) {
          const std::size_t n_rows = (rows.size() - 1) / cols;
          residual = std::max(residual, rows.back());
          for (std::size_t r = 0; r < n_rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
              state->grid(static_cast<std::size_t>(start) + 1 + r, c) =
                  rows[r * cols + c];
            }
          }
        }
        res.residual = residual;
        res.iterations = iter + 1;
        return residual >= params.epsilon;
      };

  // Per-iteration exchange: two halo rows per block boundary; approximate
  // with 2 rows per node (the dominant inter-node traffic).
  const double halo_bytes = 2.0 * static_cast<double>(cols);
  const ckpt::StateCodec codec =
      stencil_state_codec(state, &res.residual, &res.iterations);
  auto iterative = core::run_iterative<long, std::vector<double>>(
      cluster, spec, cfg, interior_rows, params.max_iterations, on_iteration,
      halo_bytes, checkpoint, checkpoint != nullptr ? &codec : nullptr);

  res.grid = state->grid;
  if (cfg.mode == core::ExecutionMode::kModeled) {
    res.iterations = iterative.iterations;
  }
  if (stats_out != nullptr) *stats_out = iterative.stats;
  return res;
}

}  // namespace prs::apps
