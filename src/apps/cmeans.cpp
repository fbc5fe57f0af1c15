#include "apps/cmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"
#include "simd/kernels.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain for the per-point map loop: ~M*D*5 flops per point, so
/// 256 points amortize the chunk hand-off at the smallest paper shapes
/// while still splitting test-sized inputs across cores.
constexpr std::size_t kMapGrain = 256;

/// Points per block of the map: one dist2_rows call and one rank-kBlock
/// gemm_block update of the sums per block.
constexpr std::size_t kBlock = 16;

/// Asks for the cache lines of the d doubles from x on.
void prefetch_row(const double* x, std::size_t d) {
  const auto* bytes = reinterpret_cast<const char*>(x);
  for (std::size_t o = 0; o < d * sizeof(double); o += 64) {
    __builtin_prefetch(bytes + o);
  }
}

/// Membership weights u_ij^m of one point against all centers (Eq (13)),
/// from its squared distances: weight j goes to w[j * stride]. Returns the
/// point's J_m contribution (Eq (12)).
double fuzzy_weights(const double* dist2, std::size_t m, double fuzziness,
                     double* w, std::size_t stride) {
  std::size_t hits = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (dist2[j] == 0.0) ++hits;
  }
  if (hits > 0) {
    // Point coincides with one or more centers (duplicated centers happen
    // with random initialization): the Eq (13) limit splits membership
    // equally across the tied centers, u_ij = 1/T each — not membership
    // 1.0 on whichever zero-distance center the scan saw last. The stored
    // weight is u^m for Eq (14); the J_m contribution is 0 either way.
    const double u = 1.0 / static_cast<double>(hits);
    const double wt = std::pow(u, fuzziness);
    for (std::size_t j = 0; j < m; ++j) {
      w[j * stride] = dist2[j] == 0.0 ? wt : 0.0;
    }
    return 0.0;
  }

  // u_ij = 1 / sum_k (||x-c_j|| / ||x-c_k||)^(2/(m-1))   (Eq (13))
  // Using squared distances: ratio^(2/(m-1)) = (d2_j/d2_k)^(1/(m-1)).
  // Each d2_k^(-1/(m-1)) is computed once, for the sum and as u_ik's
  // numerator: pow is a pure function, so the bytes are those of calling
  // it twice.
  const double inv_exp = 1.0 / (fuzziness - 1.0);
  double denom_sum = 0.0;  // sum_k d2_k^(-1/(m-1))
  for (std::size_t k = 0; k < m; ++k) {
    w[k * stride] = std::pow(dist2[k], -inv_exp);
    denom_sum += w[k * stride];
  }
  double objective = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double u = w[j * stride] / denom_sum;
    w[j * stride] = std::pow(u, fuzziness);      // u_ij^m for Eq (14)
    objective += w[j * stride] * dist2[j];       // Eq (12) contribution
  }
  return objective;
}

/// Serial accumulation of points [begin, end) into the zero-initialized
/// m x (d + 2) row-major sums — the per-chunk body of cmeans_accumulate.
/// Each sum gets the operations of a per-point loop in ascending point
/// order: cluster j's row c += w_ij * x_i[c] and its weight sum += w_ij,
/// then cluster 0's objective += the point's J_m term.
void accumulate_range(const linalg::MatrixD& points,
                      const linalg::MatrixD& centers, double fuzziness,
                      std::size_t begin, std::size_t end, double* sums) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  const std::size_t ld = d + 2;
  const simd::Kernels& kn = simd::active_kernels();
  // dist2 is kBlock x m; wt is m x kBlock, the block's weights transposed.
  static thread_local std::vector<double> dist2, wt;
  dist2.resize(kBlock * m);
  wt.resize(m * kBlock);
  double objective[kBlock] = {};
  for (std::size_t b = begin; b < end; b += kBlock) {
    const std::size_t nb = std::min(kBlock, end - b);
    const double* x = points.row(b);
    kn.dist2_rows(x, nb, d, centers.row(0), m, dist2.data());
    for (std::size_t p = 0; p < nb; ++p) {
      // Fetch the next block's rows while pow runs, one row per point:
      // the distance kernel reads a whole block at once, and would wait
      // for memory.
      if (b + kBlock + p < end) prefetch_row(points.row(b + kBlock + p), d);
      objective[p] = fuzzy_weights(dist2.data() + p * m, m, fuzziness,
                                   wt.data() + p, kBlock);
    }
    // With alpha = beta = 1, c * 1 and 1 * w are exact, so each sum gets
    // c + w_ij * x_i[c] for i in ascending order. A zero weight (a point
    // on a center, or an underflow) adds +-0, which changes no sum: sums
    // start at +0 and so never hold -0, and a point with an infinite or
    // NaN coordinate has NaN weights, never zero ones, so 0 * inf cannot
    // arise. Skipping zero weights would give the same bytes.
    kn.gemm_block(m, d, nb, 1.0, wt.data(), kBlock, x, d, 1.0, sums, ld);
    for (std::size_t p = 0; p < nb; ++p) {
      for (std::size_t j = 0; j < m; ++j) {
        sums[j * ld + d] += wt[j * kBlock + p];
      }
      // The objective is accounted on cluster 0's partial (summed globally).
      sums[d + 1] += objective[p];
    }
  }
}

/// New centers from global partials (Eq (14)); returns max center movement.
double update_centers(linalg::MatrixD& centers,
                      const std::vector<std::vector<double>>& partials) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  double max_move2 = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const auto& p = partials[j];
    const double wsum = p[d];
    if (wsum <= 0.0) continue;  // empty cluster keeps its center
    double move2 = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double nc = p[c] / wsum;
      const double delta = nc - centers(j, c);
      move2 += delta * delta;
      centers(j, c) = nc;
    }
    max_move2 = std::max(max_move2, move2);
  }
  return std::sqrt(max_move2);
}

void validate_params(const linalg::MatrixD& points,
                     const CmeansParams& params) {
  PRS_REQUIRE(points.rows() > 0 && points.cols() > 0,
              "C-means needs a non-empty point set");
  PRS_REQUIRE(params.clusters >= 1, "need at least one cluster");
  PRS_REQUIRE(static_cast<std::size_t>(params.clusters) <= points.rows(),
              "more clusters than points");
  PRS_REQUIRE(params.fuzziness > 1.0, "fuzziness must exceed 1");
  PRS_REQUIRE(params.max_iterations >= 1, "need at least one iteration");
}

}  // namespace

void cmeans_accumulate(const linalg::MatrixD& points,
                       const linalg::MatrixD& centers, double fuzziness,
                       std::size_t begin, std::size_t end,
                       std::vector<std::vector<double>>& partials) {
  const std::size_t m = centers.rows();
  const std::size_t ld = centers.cols() + 2;
  // Fixed chunking + fixed-order tree combine (exec/parallel.hpp): the
  // same bytes come out for any host thread count.
  const std::vector<double> sums = exec::parallel_reduce(
      begin, end, kMapGrain, std::vector<double>(m * ld, 0.0),
      [&](std::size_t b, std::size_t e, std::vector<double> acc) {
        accumulate_range(points, centers, fuzziness, b, e, acc.data());
        return acc;
      },
      [](std::vector<double> a, const std::vector<double>& b) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
        return a;
      });
  partials.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    partials[j].assign(sums.data() + j * ld, sums.data() + (j + 1) * ld);
  }
}

std::vector<int> nearest_centers(const linalg::MatrixD& points,
                                 const linalg::MatrixD& centers) {
  const std::size_t d = points.cols();
  const std::size_t m = centers.rows();
  const simd::Kernels& kn = simd::active_kernels();
  std::vector<int> out(points.rows());
  // Each point writes only its own slot: the same bytes at any thread
  // count.
  exec::parallel_for(
      0, points.rows(), kMapGrain, [&](std::size_t b, std::size_t e) {
        std::vector<double> dist2(kBlock * m);
        for (std::size_t i0 = b; i0 < e; i0 += kBlock) {
          const std::size_t nb = std::min(kBlock, e - i0);
          kn.dist2_rows(points.row(i0), nb, d, centers.row(0), m,
                        dist2.data());
          for (std::size_t p = 0; p < nb; ++p) {
            double best = std::numeric_limits<double>::infinity();
            int arg = 0;
            for (std::size_t j = 0; j < m; ++j) {
              if (dist2[p * m + j] < best) {
                best = dist2[p * m + j];
                arg = static_cast<int>(j);
              }
            }
            out[i0 + p] = arg;
          }
        }
      });
  return out;
}

linalg::MatrixD initial_centers(const linalg::MatrixD& points, int clusters,
                                std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  // Distinct random indices (Floyd's algorithm keeps it O(M)).
  std::vector<std::size_t> picks;
  for (std::size_t j = n - static_cast<std::size_t>(clusters); j < n; ++j) {
    std::size_t t = rng.uniform_index(j + 1);
    if (std::find(picks.begin(), picks.end(), t) != picks.end()) t = j;
    picks.push_back(t);
  }
  linalg::MatrixD centers(static_cast<std::size_t>(clusters), d);
  for (std::size_t j = 0; j < picks.size(); ++j) {
    for (std::size_t c = 0; c < d; ++c) {
      centers(j, c) = points(picks[j], c);
    }
  }
  return centers;
}

CmeansResult cmeans_serial(const linalg::MatrixD& points,
                           const CmeansParams& params) {
  validate_params(points, params);
  CmeansResult res;
  res.centers = initial_centers(points, params.clusters, params.seed);

  std::vector<std::vector<double>> partials;
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    cmeans_accumulate(points, res.centers, params.fuzziness, 0,
                      points.rows(), partials);
    res.objective =
        partials[0][points.cols() + 1];
    const double move = update_centers(res.centers, partials);
    res.iterations = iter + 1;
    if (move < params.epsilon) break;
  }
  res.assignment = nearest_centers(points, res.centers);
  return res;
}

double cmeans_flops_per_point(int clusters, std::size_t dims) {
  // Paper convention: ~5 flops per cluster-dimension pair per point
  // (distances 3MD + weighted accumulation 2MD; the O(M^2)-free Eq (13)
  // form above matches it).
  return 5.0 * static_cast<double>(clusters) * static_cast<double>(dims);
}

double cmeans_arithmetic_intensity(int clusters) {
  // Table 5: AI(C-means) = 5 * M.
  return 5.0 * static_cast<double>(clusters);
}

CmeansSpec cmeans_spec(std::shared_ptr<CmeansState> state,
                       const CmeansParams& params, std::size_t dims) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  CmeansSpec spec;
  spec.name = "cmeans";
  spec.cpu_map = [state](const core::InputSlice& s,
                         core::Emitter<int, std::vector<double>>& e) {
    std::vector<std::vector<double>> partials;
    cmeans_accumulate(*state->points, state->centers, state->fuzziness,
                      s.begin, s.end, partials);
    for (std::size_t j = 0; j < partials.size(); ++j) {
      e.emit(static_cast<int>(j), std::move(partials[j]));
    }
  };
  // The CUDA kernels compute the same partials (paper: source often
  // identical across backends).
  spec.gpu_map = spec.cpu_map;
  spec.modeled_map = [state](const core::InputSlice&,
                             core::Emitter<int, std::vector<double>>& e) {
    const std::size_t m = state->centers.rows();
    const std::size_t d = state->centers.cols();
    for (std::size_t j = 0; j < m; ++j) {
      e.emit(static_cast<int>(j), std::vector<double>(d + 2, 0.0));
    }
  };
  spec.combine = [](const std::vector<double>& a,
                    const std::vector<double>& b) {
    PRS_CHECK(a.size() == b.size(), "partial size mismatch");
    std::vector<double> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
    return out;
  };

  spec.cpu_flops_per_item = cmeans_flops_per_point(params.clusters, dims);
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  spec.ai_cpu = cmeans_arithmetic_intensity(params.clusters);
  spec.ai_gpu = spec.ai_cpu;
  spec.gpu_data_cached = true;  // event matrix cached in GPU memory (§IV.A.1)
  spec.item_bytes = static_cast<double>(dims);  // element-counted row
  spec.pair_bytes = static_cast<double>(dims + 2);
  spec.reduce_flops_per_pair = static_cast<double>(dims + 2);
  // Per-iteration membership rows (M elements per point) copied back from
  // the GPU — the PRS generality cost behind Table 3's PRS-vs-MPI gap; the
  // hand-written MPI/GPU baseline keeps them resident.
  spec.gpu_item_d2h_bytes = static_cast<double>(params.clusters);
  spec.efficiency = core::calib::kCmeans;
  return spec;
}

ckpt::StateCodec cmeans_state_codec(std::shared_ptr<CmeansState> state,
                                    double* objective, int* iterations) {
  ckpt::StateCodec codec;
  codec.tag = "cmeans";
  codec.encode = [state, objective, iterations](ckpt::Writer& w) {
    ckpt::put_matrix(w, state->centers);
    w.f64(state->fuzziness);
    w.f64(objective != nullptr ? *objective : 0.0);
    w.i32(iterations != nullptr ? *iterations : 0);
  };
  codec.decode = [state, objective, iterations](ckpt::Reader& r) {
    linalg::MatrixD centers;
    ckpt::get_matrix(r, centers);
    PRS_REQUIRE(centers.rows() == state->centers.rows() &&
                    centers.cols() == state->centers.cols(),
                "cmeans checkpoint centers shape does not match this run");
    const double fuzziness = r.f64();
    PRS_REQUIRE(fuzziness == state->fuzziness,
                "cmeans checkpoint was taken with a different fuzziness");
    state->centers = std::move(centers);
    const double obj = r.f64();
    const int iters = r.i32();
    if (objective != nullptr) *objective = obj;
    if (iterations != nullptr) *iterations = iters;
  };
  return codec;
}

CmeansResult cmeans_prs(core::Cluster& cluster, const linalg::MatrixD& points,
                        const CmeansParams& params,
                        const core::JobConfig& cfg,
                        core::JobStats* stats_out,
                        const ckpt::CheckpointConfig* checkpoint) {
  validate_params(points, params);
  const std::size_t d = points.cols();

  auto state = std::make_shared<CmeansState>();
  state->points = &points;
  state->centers = initial_centers(points, params.clusters, params.seed);
  state->fuzziness = params.fuzziness;
  CmeansSpec spec = cmeans_spec(state, params, d);

  CmeansResult res;
  auto on_iteration = [&](int iter,
                          const std::map<int, std::vector<double>>& out) {
    if (cfg.mode == core::ExecutionMode::kModeled) {
      return true;  // no numeric content to converge on
    }
    std::vector<std::vector<double>> partials(
        static_cast<std::size_t>(params.clusters));
    for (const auto& [k, v] : out) {
      partials[static_cast<std::size_t>(k)] = v;
    }
    res.objective = partials[0][d + 1];
    const double move = update_centers(state->centers, partials);
    res.iterations = iter + 1;
    return move >= params.epsilon;
  };

  const ckpt::StateCodec codec =
      cmeans_state_codec(state, &res.objective, &res.iterations);
  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, points.rows(), params.max_iterations, on_iteration,
      /*state_bytes=*/static_cast<double>(params.clusters) *
          static_cast<double>(d),
      checkpoint, checkpoint != nullptr ? &codec : nullptr);

  res.centers = state->centers;
  if (cfg.mode == core::ExecutionMode::kFunctional) {
    res.assignment = nearest_centers(points, res.centers);
  } else {
    res.iterations = iterative.iterations;
  }
  if (stats_out != nullptr) *stats_out = iterative.stats;
  return res;
}

core::JobStats cmeans_prs_modeled(core::Cluster& cluster,
                                  std::size_t n_points, std::size_t dims,
                                  const CmeansParams& params,
                                  core::JobConfig cfg) {
  PRS_REQUIRE(n_points > 0 && dims > 0, "modeled run needs a shape");
  cfg.mode = core::ExecutionMode::kModeled;
  auto state = std::make_shared<CmeansState>();
  state->points = nullptr;  // modeled_map never dereferences it
  state->centers = linalg::MatrixD(static_cast<std::size_t>(params.clusters),
                                   dims, 0.0);
  state->fuzziness = params.fuzziness;
  CmeansSpec spec = cmeans_spec(state, params, dims);

  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, n_points, params.max_iterations,
      [](int, const std::map<int, std::vector<double>>&) { return true; },
      static_cast<double>(params.clusters) * static_cast<double>(dims));
  return iterative.stats;
}

}  // namespace prs::apps
