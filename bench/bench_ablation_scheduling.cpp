// Ablation promised in §III.B.2: static (analytic-model) vs dynamic
// (block-polling) scheduling — "Our PRS provides for both scheduling
// strategies. We will make comparisons in following sections."
//
// Three comparisons on the Delta node model:
//  1. elapsed time of static vs dynamic for C-means and GEMV across block
//     sizes (dynamic pays per-block polling overhead; tiny blocks flood the
//     dispatcher, huge blocks imbalance the devices);
//  2. sensitivity of static scheduling to the CPU fraction p: sweep p and
//     show the analytic p from Eq (8) sits at (or near) the minimum —
//     "according to the linear programming theory, when Tg_p ~= Tc_p, Tgc
//     gets the minimal value";
//  3. the cost of getting p wrong, quantifying what the analytic model buys
//     over naive 50/50 or CPU-only/GPU-only placements;
//  4. the adaptive feedback policy: started from a deliberately wrong p, it
//     converges toward the Eq (8) optimum from observed busy times alone.
//
// Dynamic-mode numbers charge the serial task-dispatch cost as each block
// is handed to a polling daemon (not all up front), so the dispatcher
// overlaps with execution but late blocks arrive late.
#include <cstdio>

#include "apps/cmeans.hpp"
#include "apps/gemv.hpp"
#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"

namespace {

using namespace prs;

double cmeans_time(core::JobConfig cfg) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 2, core::NodeConfig{});
  apps::CmeansParams p;
  p.clusters = 10;
  p.max_iterations = 10;
  cfg.charge_job_startup = false;
  auto stats = apps::cmeans_prs_modeled(cluster, 400000, 100, p, cfg);
  return stats.elapsed;
}

double gemv_time(core::JobConfig cfg) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 2, core::NodeConfig{});
  cfg.charge_job_startup = false;
  auto stats = apps::gemv_prs_modeled(cluster, 70000, 10000, cfg);
  return stats.elapsed;
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation — static (Eq (8)) vs dynamic (block polling) scheduling",
      "2 Delta nodes; C-means 400k x 100, M=10, 10 iterations; GEMV 70000 x "
      "10000.");

  {
    core::JobConfig stat;
    core::DynamicBlockPolicy dynamic;
    TextTable t({"app", "static [s]", "dynamic auto [s]",
                 "dynamic 1k-item blocks [s]", "dynamic 50k-item blocks [s]"});
    for (const char* app : {"cmeans", "gemv"}) {
      auto run = [&](core::JobConfig cfg) {
        return app == std::string("cmeans") ? cmeans_time(cfg)
                                            : gemv_time(cfg);
      };
      core::JobConfig dyn = stat;
      dyn.policy = &dynamic;
      core::JobConfig dyn_small = dyn;
      dyn_small.dynamic_block_items = 1000;
      core::JobConfig dyn_big = dyn;
      dyn_big.dynamic_block_items = 50000;
      t.add_row({app, TextTable::num(run(stat), 4),
                 TextTable::num(run(dyn), 4),
                 TextTable::num(run(dyn_small), 4),
                 TextTable::num(run(dyn_big), 4)});
    }
    t.print();
  }

  std::printf(
      "\n-- sensitivity of job time to the CPU fraction p (C-means) --\n");
  {
    sim::Simulator probe;
    core::Cluster c0(probe, 1, core::NodeConfig{});
    const double p_star =
        c0.scheduler()
            .workload_split(apps::cmeans_arithmetic_intensity(10), false)
            .cpu_fraction;

    TextTable t({"p (CPU share)", "elapsed [s]", "vs best"});
    double best = 1e300;
    std::vector<std::pair<double, double>> rows;
    for (double p :
         {0.0, 0.05, p_star, 0.2, 0.35, 0.5, 0.75, 1.0}) {
      core::JobConfig cfg;
      cfg.cpu_fraction_override = p;
      const double el = cmeans_time(cfg);
      rows.emplace_back(p, el);
      best = std::min(best, el);
    }
    for (auto& [p, el] : rows) {
      char label[48];
      std::snprintf(label, sizeof(label), "%.3f%s", p,
                    p == p_star ? "  <- Eq (8)" : "");
      char slowdown[32];
      std::snprintf(slowdown, sizeof(slowdown), "%+.1f%%",
                    (el / best - 1.0) * 100.0);
      t.add_row({label, TextTable::num(el, 5), slowdown});
    }
    t.print();
    std::printf(
        "\nShape checks: the Eq (8) fraction sits at/near the sweep minimum; "
        "both extremes (p=0 GPU-only,\np=1 CPU-only) are clearly slower; "
        "dynamic scheduling tracks static but pays polling overhead,\n"
        "especially with tiny blocks.\n");
  }

  std::printf(
      "\n-- adaptive policy: convergence from a wrong start (C-means) --\n");
  {
    sim::Simulator probe;
    core::Cluster c0(probe, 1, core::NodeConfig{});
    const double p_star =
        c0.scheduler()
            .workload_split(apps::cmeans_arithmetic_intensity(10), false)
            .cpu_fraction;

    // Start far from the optimum; each 10-iteration run feeds busy times
    // back into the same policy instance, like prs_run --policy=adaptive
    // --repeat=N.
    core::AdaptiveFeedbackPolicy adaptive(/*gain=*/0.5,
                                          /*initial_fraction=*/0.5);
    core::JobConfig cfg;
    cfg.policy = &adaptive;
    TextTable t({"run", "elapsed [s]", "learned p after", "Eq (8) p"});
    for (int run = 1; run <= 4; ++run) {
      const double el = cmeans_time(cfg);
      t.add_row({std::to_string(run), TextTable::num(el, 5),
                 TextTable::num(adaptive.learned_fraction(0), 4),
                 TextTable::num(p_star, 4)});
    }
    t.print();
    std::printf(
        "\nShape check: the learned p moves from the deliberately wrong 0.5 "
        "start toward the analytic\noptimum, and elapsed time drops "
        "accordingly (StarPU-style measured feedback).\n");
  }
  return 0;
}
