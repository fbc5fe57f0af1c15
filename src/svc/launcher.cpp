#include "svc/launcher.hpp"

#include <cstdarg>
#include <cstdio>

#include "apps/cmeans.hpp"
#include "apps/dgemm.hpp"
#include "apps/fftbatch.hpp"
#include "apps/gemv.hpp"
#include "apps/gmm.hpp"
#include "apps/kmeans.hpp"
#include "apps/stencil.hpp"
#include "apps/wordcount.hpp"
#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "data/dataset.hpp"
#include "linalg/fft.hpp"

namespace prs::svc {
namespace {

void linef(std::vector<std::string>& lines, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  lines.emplace_back(buf);
}

/// 16-hex-digit FNV digest of a result's encoded bytes. CI diffs this line
/// between single-shot, fault-injected, resumed and server-submitted runs.
std::string hex_digest(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string writer_digest(const ckpt::Writer& w) {
  return hex_digest(ckpt::fnv1a64(w.bytes()));
}

/// Modeled runs have no application result; digest the statistics instead
/// (deterministic: virtual time and counters are bit-reproducible).
std::string stats_digest(const core::JobStats& stats) {
  ckpt::Writer w;
  core::visit_stats_fields(stats, [&w](const char*, const auto& value) {
    w.f64(static_cast<double>(value));
  });
  return writer_digest(w);
}

}  // namespace

LaunchOutcome run_job_spec(const JobSpec& spec, core::Cluster& cluster,
                           const core::NodeConfig& node,
                           const core::JobConfig& cfg, Rng& rng,
                           const ckpt::CheckpointConfig* checkpoint) {
  const auto& sched = cluster.scheduler(0);
  LaunchOutcome out;
  core::JobStats& stats = out.stats;

  if (spec.app == "cmeans" || spec.app == "kmeans") {
    const double ai = spec.app == "cmeans"
                          ? apps::cmeans_arithmetic_intensity(spec.clusters)
                          : apps::kmeans_arithmetic_intensity(spec.clusters);
    linef(out.lines, "%s: N=%zu D=%zu M=%d iters<=%d | AI=%g -> p=%.1f%%",
          spec.app.c_str(), spec.points, spec.dims, spec.clusters,
          spec.iterations, ai,
          sched.workload_split(ai, false, node.gpus_per_node).cpu_fraction *
              100.0);
    if (spec.functional) {
      auto ds = data::generate_blobs(rng, spec.points, spec.dims,
                                     spec.clusters, 10.0, 1.0);
      if (spec.app == "cmeans") {
        apps::CmeansParams p;
        p.clusters = spec.clusters;
        p.max_iterations = spec.iterations;
        p.seed = spec.seed;
        auto res = apps::cmeans_prs(cluster, ds.points, p, cfg, &stats,
                                    checkpoint);
        linef(out.lines, "converged in %d iterations, J_m = %.6g",
              res.iterations, res.objective);
        ckpt::Writer w;
        ckpt::put_matrix(w, res.centers);
        w.f64(res.objective);
        out.digest = writer_digest(w);
        linef(out.lines, "cmeans state digest: %s", out.digest.c_str());
      } else {
        apps::KmeansParams p;
        p.clusters = spec.clusters;
        p.max_iterations = spec.iterations;
        p.seed = spec.seed;
        auto res = apps::kmeans_prs(cluster, ds.points, p, cfg, &stats,
                                    checkpoint);
        linef(out.lines, "converged in %d iterations, inertia = %.6g",
              res.iterations, res.inertia);
        ckpt::Writer w;
        ckpt::put_matrix(w, res.centers);
        w.f64(res.inertia);
        out.digest = writer_digest(w);
        linef(out.lines, "kmeans state digest: %s", out.digest.c_str());
      }
    } else if (spec.app == "cmeans") {
      apps::CmeansParams p;
      p.clusters = spec.clusters;
      p.max_iterations = spec.iterations;
      stats = apps::cmeans_prs_modeled(cluster, spec.points, spec.dims, p,
                                       cfg);
    } else {
      apps::KmeansParams p;
      p.clusters = spec.clusters;
      p.max_iterations = spec.iterations;
      stats = apps::kmeans_prs_modeled(cluster, spec.points, spec.dims, p,
                                       cfg);
    }
  } else if (spec.app == "gmm") {
    const double ai =
        apps::gmm_arithmetic_intensity(spec.clusters, spec.dims);
    linef(out.lines, "gmm: N=%zu D=%zu M=%d iters<=%d | AI=%g -> p=%.1f%%",
          spec.points, spec.dims, spec.clusters, spec.iterations, ai,
          sched.workload_split(ai, false, node.gpus_per_node).cpu_fraction *
              100.0);
    if (spec.functional) {
      auto ds = data::generate_blobs(rng, spec.points, spec.dims,
                                     spec.clusters, 10.0, 1.0);
      apps::GmmParams p;
      p.components = spec.clusters;
      p.max_iterations = spec.iterations;
      p.seed = spec.seed;
      auto model = apps::gmm_prs(cluster, ds.points, p, cfg, &stats,
                                 checkpoint);
      linef(out.lines, "converged in %d iterations, log-likelihood = %.6g",
            model.iterations, model.log_likelihood);
      ckpt::Writer w;
      w.u64(model.weights.size());
      for (double wm : model.weights) w.f64(wm);
      ckpt::put_matrix(w, model.means);
      ckpt::put_matrix(w, model.variances);
      w.f64(model.log_likelihood);
      out.digest = writer_digest(w);
      linef(out.lines, "gmm state digest: %s", out.digest.c_str());
    } else {
      apps::GmmParams p;
      p.components = spec.clusters;
      p.max_iterations = spec.iterations;
      stats = apps::gmm_prs_modeled(cluster, spec.points, spec.dims, p, cfg);
    }
  } else if (spec.app == "gemv") {
    const double ai = apps::gemv_arithmetic_intensity();
    linef(out.lines, "gemv: %zu x %zu | AI=%g -> p=%.1f%%", spec.rows,
          spec.cols, ai,
          sched.workload_split(ai, true, node.gpus_per_node).cpu_fraction *
              100.0);
    if (spec.functional) {
      auto a = data::random_matrix(rng, spec.rows, spec.cols);
      auto x = data::random_vector(rng, spec.cols);
      auto y = apps::gemv_prs(cluster, a, x, cfg, &stats);
      linef(out.lines, "y[0] = %.6g, y[n-1] = %.6g", y.front(), y.back());
      ckpt::Writer w;
      w.u64(y.size());
      for (double v : y) w.f64(v);
      out.digest = writer_digest(w);
    } else {
      stats = apps::gemv_prs_modeled(cluster, spec.rows, spec.cols, cfg);
    }
  } else if (spec.app == "dgemm") {
    // C (rows x cols) = A (rows x dims) * B (dims x cols).
    const double ai = apps::dgemm_block_ai(
        static_cast<double>(spec.rows), spec.dims, spec.cols);
    linef(out.lines, "dgemm: (%zu x %zu) * (%zu x %zu) | AI=%g -> p=%.1f%%",
          spec.rows, spec.dims, spec.dims, spec.cols, ai,
          sched.workload_split(ai, true, node.gpus_per_node).cpu_fraction *
              100.0);
    if (spec.functional) {
      auto a = data::random_matrix(rng, spec.rows, spec.dims);
      auto b = data::random_matrix(rng, spec.dims, spec.cols);
      auto c = apps::dgemm_prs(cluster, a, b, cfg, &stats);
      linef(out.lines, "C[0][0] = %.6g, C[m-1][n-1] = %.6g", c(0, 0),
            c(c.rows() - 1, c.cols() - 1));
      out.digest = hex_digest(ckpt::fnv1a64_matrix(c));
    } else {
      stats = apps::dgemm_prs_modeled(cluster, spec.rows, spec.cols,
                                      spec.dims, cfg);
    }
  } else if (spec.app == "stencil") {
    // Grid: dims rows x cols columns (functional only; validate() enforces).
    const double ai = apps::stencil_arithmetic_intensity();
    linef(out.lines, "stencil: %zu x %zu grid, iters<=%d | AI=%g -> p=%.1f%%",
          spec.dims, spec.cols, spec.iterations, ai,
          sched.workload_split(ai, false, node.gpus_per_node).cpu_fraction *
              100.0);
    auto grid = data::random_matrix(rng, spec.dims, spec.cols);
    apps::StencilParams p;
    p.max_iterations = spec.iterations;
    auto res = apps::stencil_prs(cluster, grid, p, cfg, &stats, checkpoint);
    linef(out.lines, "relaxed in %d iterations, residual = %.6g",
          res.iterations, res.residual);
    // The grid is hashed in place; the residual follows it, seeded with
    // the grid's hash.
    ckpt::Writer residual;
    residual.f64(res.residual);
    out.digest = hex_digest(
        ckpt::fnv1a64(residual.bytes(), ckpt::fnv1a64_matrix(res.grid)));
    linef(out.lines, "stencil state digest: %s", out.digest.c_str());
  } else if (spec.app == "fft") {
    const double ai = linalg::fft_arithmetic_intensity(spec.cols);
    linef(out.lines,
          "fft batch: %zu signals x %zu samples | AI=%g -> p=%.1f%%",
          spec.points, spec.cols, ai,
          sched.workload_split(ai, true, node.gpus_per_node).cpu_fraction *
              100.0);
    stats = apps::fft_batch_prs_modeled(cluster, spec.points, spec.cols,
                                        cfg);
  } else if (spec.app == "wordcount") {
    auto corpus = std::make_shared<const apps::Corpus>(
        apps::generate_corpus(rng, spec.points, 8, 5000));
    auto counts = apps::wordcount_prs(cluster, corpus, cfg, &stats);
    unsigned long long total = 0;
    for (const auto& [w, c] : counts) total += c;
    // Deterministic one-line digest of the result (CI diffs this line
    // between fault-free and fault-injected runs).
    linef(out.lines,
          "wordcount result: %zu lines, %zu distinct words, "
          "%llu total occurrences",
          spec.points, counts.size(), total);
    ckpt::Writer w;
    w.u64(counts.size());
    for (const auto& [word, c] : counts) {
      w.str(word);
      w.u64(static_cast<std::uint64_t>(c));
    }
    out.digest = writer_digest(w);
  } else {
    throw InvalidArgument("unknown app '" + spec.app + "' (try --list)");
  }

  // Modeled runs (and functional paths without an app-state digest) fall
  // back to digesting the deterministic statistics.
  if (out.digest.empty()) out.digest = stats_digest(stats);
  linef(out.lines, "result digest: %s", out.digest.c_str());
  return out;
}

}  // namespace prs::svc
