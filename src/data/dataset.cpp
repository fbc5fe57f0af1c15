#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "exec/parallel.hpp"

namespace prs::data {

Dataset sample_gaussian_mixture(Rng& rng, std::size_t n,
                                const std::vector<GaussianComponent>& comps) {
  PRS_REQUIRE(!comps.empty(), "mixture needs at least one component");
  const std::size_t d = comps.front().mean.size();
  double total_weight = 0.0;
  for (const auto& c : comps) {
    PRS_REQUIRE(c.mean.size() == d && c.stddev.size() == d,
                "all components must share the dimensionality");
    PRS_REQUIRE(c.weight > 0.0, "component weights must be positive");
    total_weight += c.weight;
  }

  Dataset ds;
  ds.points = linalg::MatrixD(n, d);
  ds.labels.resize(n);
  ds.num_clusters = static_cast<int>(comps.size());

  // A point takes one uniform and d normals; two points take 2 + 2d draws
  // and leave the Box–Muller cache as they found it. Chunks of an even
  // number of points therefore all start with an empty cache, where the
  // predicted start is exact, at every d.
  const std::size_t grain = std::max<std::size_t>(
      2, (exec::kGenerateDraws / (d + 1)) & ~std::size_t{1});
  exec::parallel_generate(
      rng, n, grain, d + 1, [&](std::size_t b, std::size_t e, Rng& r) {
        for (std::size_t i = b; i < e; ++i) {
          // Pick the component by weight.
          double u = r.uniform() * total_weight;
          std::size_t k = 0;
          for (; k + 1 < comps.size(); ++k) {
            if (u < comps[k].weight) break;
            u -= comps[k].weight;
          }
          const auto& c = comps[k];
          for (std::size_t j = 0; j < d; ++j) {
            ds.points(i, j) = r.normal(c.mean[j], c.stddev[j]);
          }
          ds.labels[i] = static_cast<int>(k);
        }
      });
  return ds;
}

Dataset generate_flame_like(Rng& rng, std::size_t n) {
  // Five overlapping, anisotropic 4-D Gaussians with unequal weights,
  // mimicking the lymphocyte subpopulations in the FLAME data set: two
  // large nearby populations, two medium, one small tight one.
  std::vector<GaussianComponent> comps = {
      {0.34, {0.0, 0.0, 0.0, 0.0}, {1.2, 0.8, 1.0, 0.6}},
      {0.27, {2.4, 1.2, -0.5, 0.8}, {0.9, 1.3, 0.7, 1.0}},
      {0.18, {-2.2, 2.6, 1.4, -1.0}, {0.7, 0.6, 1.1, 0.8}},
      {0.14, {1.0, -2.8, 2.2, 1.6}, {1.0, 0.9, 0.5, 0.7}},
      {0.07, {-1.2, -1.6, -2.4, 2.8}, {0.4, 0.5, 0.4, 0.5}},
  };
  return sample_gaussian_mixture(rng, n, comps);
}

Dataset generate_blobs(Rng& rng, std::size_t n, std::size_t d, int k,
                       double separation, double sigma) {
  PRS_REQUIRE(k >= 1, "need at least one blob");
  std::vector<GaussianComponent> comps;
  comps.reserve(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    GaussianComponent g;
    g.weight = 1.0;
    g.mean.resize(d);
    g.stddev.assign(d, sigma);
    // Place centers on a randomized lattice so any d, k combination stays
    // separated by ~`separation`.
    for (std::size_t j = 0; j < d; ++j) {
      const double base =
          separation * static_cast<double>((c >> (j % 8)) & 1 ? c : -c);
      g.mean[j] = base + rng.uniform(-0.1, 0.1) * separation;
    }
    comps.push_back(std::move(g));
  }
  return sample_gaussian_mixture(rng, n, comps);
}

namespace {

/// One uniform draw per element, element order.
void fill_uniform(Rng& rng, std::vector<double>& v, double lo, double hi) {
  exec::parallel_generate(rng, v.size(), exec::kGenerateDraws, 1,
                          [&](std::size_t b, std::size_t e, Rng& r) {
                            for (std::size_t i = b; i < e; ++i) {
                              v[i] = r.uniform(lo, hi);
                            }
                          });
}

}  // namespace

linalg::MatrixD random_matrix(Rng& rng, std::size_t rows, std::size_t cols,
                              double lo, double hi) {
  linalg::MatrixD m(rows, cols);
  fill_uniform(rng, m.storage(), lo, hi);
  return m;
}

std::vector<double> random_vector(Rng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> v(n);
  fill_uniform(rng, v, lo, hi);
  return v;
}

}  // namespace prs::data
