#include "apps/kmeans.hpp"

#include <cmath>
#include <limits>
#include <span>

#include "apps/cmeans.hpp"  // initial_centers
#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"
#include "linalg/blas.hpp"
#include "simd/kernels.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain: ~3*M*D flops per point; 512-point chunks amortize the
/// hand-off on the cheapest shapes.
constexpr std::size_t kMapGrain = 512;

int nearest_center(std::span<const double> x, const linalg::MatrixD& centers,
                   double& dist2_out) {
  const std::size_t d = centers.cols();
  double best = std::numeric_limits<double>::infinity();
  int arg = 0;
  for (std::size_t j = 0; j < centers.rows(); ++j) {
    const double d2 =
        linalg::squared_distance<double>(x, {centers.row(j), d});
    if (d2 < best) {
      best = d2;
      arg = static_cast<int>(j);
    }
  }
  dist2_out = best;
  return arg;
}

/// Nearest center of every point. Each point writes only its own slot:
/// the same bytes at any thread count.
std::vector<int> assign_to_nearest(const linalg::MatrixD& points,
                                   const linalg::MatrixD& centers) {
  std::vector<int> out(points.rows());
  exec::parallel_for(
      0, points.rows(), kMapGrain, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          double d2 = 0.0;
          out[i] = nearest_center({points.row(i), points.cols()}, centers, d2);
        }
      });
  return out;
}

/// Serial per-chunk body: accumulates [begin, end) into zero-initialized
/// per-cluster partials [sum x (D), count, inertia].
void accumulate_range(const linalg::MatrixD& points,
                      const linalg::MatrixD& centers, std::size_t begin,
                      std::size_t end,
                      std::vector<std::vector<double>>& partials) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  const simd::Kernels& kn = simd::active_kernels();
  static thread_local std::vector<double> ct;
  simd::pack_transposed(centers.row(0), m, d, ct);
  static thread_local std::vector<double> dist2;
  dist2.assign(m, 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    const double* x = points.row(i);
    // Same strict-< ascending-j argmin as nearest_center, on dispatched
    // per-center distances (bit-identical across SIMD levels).
    kn.dist2_block(x, ct.data(), m, d, dist2.data());
    double d2 = std::numeric_limits<double>::infinity();
    std::size_t j = 0;
    for (std::size_t k = 0; k < m; ++k) {
      if (dist2[k] < d2) {
        d2 = dist2[k];
        j = k;
      }
    }
    auto& p = partials[j];
    kn.add_acc(p.data(), x, d);
    p[d] += 1.0;
    partials[0][d + 1] += d2;  // inertia accounted on cluster 0
  }
}

/// Parallel map over a slice on the host pool; fixed chunking + fixed-order
/// combine keep the bytes identical for any thread count.
void accumulate_slice(const linalg::MatrixD& points,
                      const linalg::MatrixD& centers, std::size_t begin,
                      std::size_t end,
                      std::vector<std::vector<double>>& partials) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  using Partials = std::vector<std::vector<double>>;
  if (begin >= end) {
    partials.assign(m, std::vector<double>(d + 2, 0.0));
    return;
  }
  partials = exec::parallel_reduce(
      begin, end, kMapGrain, Partials{},
      [&](std::size_t b, std::size_t e, Partials acc) {
        acc.assign(m, std::vector<double>(d + 2, 0.0));
        accumulate_range(points, centers, b, e, acc);
        return acc;
      },
      [](Partials a, Partials b) {
        for (std::size_t j = 0; j < a.size(); ++j) {
          for (std::size_t c = 0; c < a[j].size(); ++c) a[j][c] += b[j][c];
        }
        return a;
      });
}

double update_centers(linalg::MatrixD& centers,
                      const std::vector<std::vector<double>>& partials) {
  const std::size_t d = centers.cols();
  double max_move2 = 0.0;
  for (std::size_t j = 0; j < centers.rows(); ++j) {
    const auto& p = partials[j];
    if (p[d] <= 0.0) continue;  // empty cluster keeps its center
    double move2 = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double nc = p[c] / p[d];
      const double delta = nc - centers(j, c);
      move2 += delta * delta;
      centers(j, c) = nc;
    }
    max_move2 = std::max(max_move2, move2);
  }
  return std::sqrt(max_move2);
}

void validate_params(const linalg::MatrixD& points,
                     const KmeansParams& params) {
  PRS_REQUIRE(points.rows() > 0 && points.cols() > 0,
              "K-means needs a non-empty point set");
  PRS_REQUIRE(params.clusters >= 1, "need at least one cluster");
  PRS_REQUIRE(static_cast<std::size_t>(params.clusters) <= points.rows(),
              "more clusters than points");
  PRS_REQUIRE(params.max_iterations >= 1, "need at least one iteration");
}

}  // namespace

KmeansResult kmeans_serial(const linalg::MatrixD& points,
                           const KmeansParams& params) {
  validate_params(points, params);
  KmeansResult res;
  res.centers = initial_centers(points, params.clusters, params.seed);
  std::vector<std::vector<double>> partials;
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    accumulate_slice(points, res.centers, 0, points.rows(), partials);
    res.inertia = partials[0][points.cols() + 1];
    const double move = update_centers(res.centers, partials);
    res.iterations = iter + 1;
    if (move < params.epsilon) break;
  }
  res.assignment = assign_to_nearest(points, res.centers);
  return res;
}

double kmeans_flops_per_point(int clusters, std::size_t dims) {
  return 3.0 * static_cast<double>(clusters) * static_cast<double>(dims);
}

double kmeans_arithmetic_intensity(int clusters) {
  return 3.0 * static_cast<double>(clusters);
}

KmeansSpec kmeans_spec(std::shared_ptr<KmeansState> state,
                       const KmeansParams& params, std::size_t dims) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  KmeansSpec spec;
  spec.name = "kmeans";
  spec.cpu_map = [state](const core::InputSlice& s,
                         core::Emitter<int, std::vector<double>>& e) {
    std::vector<std::vector<double>> partials;
    accumulate_slice(*state->points, state->centers, s.begin, s.end,
                     partials);
    for (std::size_t j = 0; j < partials.size(); ++j) {
      e.emit(static_cast<int>(j), std::move(partials[j]));
    }
  };
  spec.gpu_map = spec.cpu_map;
  spec.modeled_map = [state](const core::InputSlice&,
                             core::Emitter<int, std::vector<double>>& e) {
    for (std::size_t j = 0; j < state->centers.rows(); ++j) {
      e.emit(static_cast<int>(j),
             std::vector<double>(state->centers.cols() + 2, 0.0));
    }
  };
  spec.combine = [](const std::vector<double>& a,
                    const std::vector<double>& b) {
    PRS_CHECK(a.size() == b.size(), "partial size mismatch");
    std::vector<double> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
    return out;
  };
  spec.cpu_flops_per_item = kmeans_flops_per_point(params.clusters, dims);
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  spec.ai_cpu = kmeans_arithmetic_intensity(params.clusters);
  spec.ai_gpu = spec.ai_cpu;
  spec.gpu_data_cached = true;
  spec.item_bytes = static_cast<double>(dims);
  spec.pair_bytes = static_cast<double>(dims + 2);
  spec.reduce_flops_per_pair = static_cast<double>(dims + 2);
  spec.efficiency = core::calib::kKmeans;
  return spec;
}

ckpt::StateCodec kmeans_state_codec(std::shared_ptr<KmeansState> state,
                                    double* inertia, int* iterations) {
  ckpt::StateCodec codec;
  codec.tag = "kmeans";
  codec.encode = [state, inertia, iterations](ckpt::Writer& w) {
    ckpt::put_matrix(w, state->centers);
    w.f64(inertia != nullptr ? *inertia : 0.0);
    w.i32(iterations != nullptr ? *iterations : 0);
  };
  codec.decode = [state, inertia, iterations](ckpt::Reader& r) {
    linalg::MatrixD centers;
    ckpt::get_matrix(r, centers);
    PRS_REQUIRE(centers.rows() == state->centers.rows() &&
                    centers.cols() == state->centers.cols(),
                "kmeans checkpoint centers shape does not match this run");
    state->centers = std::move(centers);
    const double in = r.f64();
    const int iters = r.i32();
    if (inertia != nullptr) *inertia = in;
    if (iterations != nullptr) *iterations = iters;
  };
  return codec;
}

KmeansResult kmeans_prs(core::Cluster& cluster, const linalg::MatrixD& points,
                        const KmeansParams& params,
                        const core::JobConfig& cfg,
                        core::JobStats* stats_out,
                        const ckpt::CheckpointConfig* checkpoint) {
  validate_params(points, params);
  const std::size_t d = points.cols();

  auto state = std::make_shared<KmeansState>();
  state->points = &points;
  state->centers = initial_centers(points, params.clusters, params.seed);
  KmeansSpec spec = kmeans_spec(state, params, d);

  KmeansResult res;
  auto on_iteration = [&](int iter,
                          const std::map<int, std::vector<double>>& out) {
    if (cfg.mode == core::ExecutionMode::kModeled) return true;
    std::vector<std::vector<double>> partials(
        static_cast<std::size_t>(params.clusters));
    for (const auto& [k, v] : out) {
      partials[static_cast<std::size_t>(k)] = v;
    }
    res.inertia = partials[0][d + 1];
    const double move = update_centers(state->centers, partials);
    res.iterations = iter + 1;
    return move >= params.epsilon;
  };

  const ckpt::StateCodec codec =
      kmeans_state_codec(state, &res.inertia, &res.iterations);
  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, points.rows(), params.max_iterations, on_iteration,
      static_cast<double>(params.clusters) * static_cast<double>(d),
      checkpoint, checkpoint != nullptr ? &codec : nullptr);

  res.centers = state->centers;
  if (cfg.mode == core::ExecutionMode::kFunctional) {
    res.assignment = assign_to_nearest(points, res.centers);
  } else {
    res.iterations = iterative.iterations;
  }
  if (stats_out != nullptr) *stats_out = iterative.stats;
  return res;
}

core::JobStats kmeans_prs_modeled(core::Cluster& cluster,
                                  std::size_t n_points, std::size_t dims,
                                  const KmeansParams& params,
                                  core::JobConfig cfg) {
  PRS_REQUIRE(n_points > 0 && dims > 0, "modeled run needs a shape");
  cfg.mode = core::ExecutionMode::kModeled;
  auto state = std::make_shared<KmeansState>();
  state->points = nullptr;  // modeled_map never dereferences it
  state->centers = linalg::MatrixD(static_cast<std::size_t>(params.clusters),
                                   dims, 0.0);
  KmeansSpec spec = kmeans_spec(state, params, dims);
  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, n_points, params.max_iterations,
      [](int, const std::map<int, std::vector<double>>&) { return true; },
      static_cast<double>(params.clusters) * static_cast<double>(dims));
  return iterative.stats;
}

}  // namespace prs::apps
