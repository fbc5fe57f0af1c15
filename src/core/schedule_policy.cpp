#include "core/schedule_policy.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "core/cluster.hpp"

namespace prs::core {

SchedulePolicy::~SchedulePolicy() = default;

NodeDecision SchedulePolicy::node_decision(Cluster& cluster,
                                           const JobShape& shape,
                                           const JobConfig& cfg, int rank) {
  const auto& sched = cluster.scheduler(rank);
  const int gpus = cluster.node(rank).gpu_count();
  auto split =
      sched.workload_split(shape.ai_cpu, shape.ai_gpu,
                           !shape.gpu_data_cached, std::max(1, gpus));
  if (cfg.host_simd_scale != 1.0) {
    split = split.with_cpu_scale(cfg.host_simd_scale);
  }

  NodeDecision d;
  // CPU fraction p: override > analytic model > single-backend cases.
  if (!cfg.use_cpu) {
    d.cpu_fraction = 0.0;
  } else if (!cfg.use_gpu || gpus == 0) {
    d.cpu_fraction = 1.0;
  } else if (cfg.cpu_fraction_override >= 0.0) {
    PRS_REQUIRE(cfg.cpu_fraction_override <= 1.0,
                "cpu fraction override must be in [0, 1]");
    d.cpu_fraction = cfg.cpu_fraction_override;
  } else {
    d.cpu_fraction = split.cpu_fraction;
  }
  // Node capability for the level-1 split among inhomogeneous fat nodes
  // (§III.B.3.a): effective rate of the backends the job may use.
  const double fc = cfg.use_cpu ? split.cpu_rate : 0.0;
  const double fg = (cfg.use_gpu && gpus > 0) ? split.gpu_rate : 0.0;
  d.capability = fc + fg;
  return d;
}

int SchedulePolicy::gpu_streams(Cluster& cluster, const JobShape& shape,
                                const JobConfig& cfg, int rank,
                                std::size_t node_items, double cpu_fraction) {
  if (!cfg.use_gpu || cluster.node(rank).gpu_count() == 0) return 1;
  const double partition_bytes =
      static_cast<double>(node_items) /
      static_cast<double>(cfg.partitions_per_node) * (1.0 - cpu_fraction) *
      shape.item_bytes;
  if (partition_bytes <= 0.0) return 1;
  return cluster.scheduler(rank).recommended_streams(partition_bytes,
                                                     shape.ai_of_block);
}

std::size_t SchedulePolicy::block_items(Cluster& cluster,
                                        const JobShape& shape,
                                        const JobConfig& cfg, int rank,
                                        std::size_t partition_items) {
  (void)cluster;
  (void)shape;
  (void)rank;
  if (cfg.dynamic_block_items > 0) return cfg.dynamic_block_items;
  // Legacy load-balance target: enough blocks to keep all daemons busy.
  const auto cores =
      static_cast<std::size_t>(cluster.node(rank).cpu().cores());
  return std::max<std::size_t>(1, partition_items / (4 * (cores + 1)));
}

void SchedulePolicy::observe(const JobFeedback& feedback) { (void)feedback; }

void SchedulePolicy::save_state(ckpt::Writer& w) const { (void)w; }

void SchedulePolicy::restore_state(ckpt::Reader& r) { (void)r; }

std::size_t DynamicBlockPolicy::block_items(Cluster& cluster,
                                            const JobShape& shape,
                                            const JobConfig& cfg, int rank,
                                            std::size_t partition_items) {
  const std::size_t balance = SchedulePolicy::block_items(
      cluster, shape, cfg, rank, partition_items);
  if (cfg.dynamic_block_items > 0) return balance;  // explicit size wins
  // Analytic floor: blocks below MinBs (Eq (11)) cannot saturate the GPU,
  // so never split finer than that even when load balance would like to.
  if (shape.item_bytes <= 0.0 || partition_items == 0 ||
      !cfg.use_gpu || cluster.node(rank).gpu_count() == 0) {
    return balance;
  }
  const double partition_bytes =
      static_cast<double>(partition_items) * shape.item_bytes;
  const auto min_bs = cluster.scheduler(rank).min_block_size(
      shape.ai_of_block, shape.item_bytes, partition_bytes);
  if (!min_bs.has_value()) return balance;
  const auto floor_items = static_cast<std::size_t>(
      std::ceil(*min_bs / shape.item_bytes));
  return std::clamp(std::max(balance, floor_items),
                    static_cast<std::size_t>(1), partition_items);
}

AdaptiveFeedbackPolicy::AdaptiveFeedbackPolicy(double gain,
                                               double initial_fraction)
    : gain_(gain), initial_fraction_(initial_fraction) {
  PRS_REQUIRE(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
  PRS_REQUIRE(initial_fraction <= 1.0,
              "initial fraction must be in [0, 1] (or negative: analytic)");
}

NodeDecision AdaptiveFeedbackPolicy::node_decision(Cluster& cluster,
                                                   const JobShape& shape,
                                                   const JobConfig& cfg,
                                                   int rank) {
  NodeDecision d = SchedulePolicy::node_decision(cluster, shape, cfg, rank);
  // The learned fraction only replaces the *analytic* p: explicit overrides
  // and single-backend configurations keep their forced values.
  const bool adjustable = cfg.use_cpu && cfg.use_gpu &&
                          cluster.node(rank).gpu_count() > 0 &&
                          cfg.cpu_fraction_override < 0.0;
  if (!adjustable) return d;
  if (const auto it = learned_.find(rank); it != learned_.end()) {
    d.cpu_fraction = it->second;
  } else if (initial_fraction_ >= 0.0) {
    d.cpu_fraction = initial_fraction_;
  }
  return d;
}

void AdaptiveFeedbackPolicy::observe(const JobFeedback& feedback) {
  for (const NodeFeedback& nf : feedback.nodes) {
    // Only meaningful when both devices actually worked this job.
    if (nf.cpu_fraction <= 0.0 || nf.cpu_fraction >= 1.0) continue;
    if (nf.cpu_busy <= 0.0 || nf.gpu_busy <= 0.0) continue;
    if (nf.cpu_cores < 1 || nf.gpu_cards < 1) continue;
    const double t_cpu = nf.cpu_busy / nf.cpu_cores;
    const double t_gpu = nf.gpu_busy / nf.gpu_cards;
    const double balanced = roofline::AnalyticScheduler::rebalanced_fraction(
        nf.cpu_fraction, t_cpu, t_gpu);
    const double current = learned_.count(nf.rank) != 0
                               ? learned_[nf.rank]
                               : nf.cpu_fraction;
    learned_[nf.rank] = std::clamp(
        (1.0 - gain_) * current + gain_ * balanced, 0.0, 1.0);
  }
}

void AdaptiveFeedbackPolicy::save_state(ckpt::Writer& w) const {
  w.u64(learned_.size());
  for (const auto& [rank, p] : learned_) {
    w.i32(rank);
    w.f64(p);
  }
}

void AdaptiveFeedbackPolicy::restore_state(ckpt::Reader& r) {
  std::map<int, double> learned;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int rank = r.i32();
    const double p = r.f64();
    PRS_REQUIRE(rank >= 0, "adaptive policy state holds a negative rank");
    PRS_REQUIRE(p >= 0.0 && p <= 1.0,
                "adaptive policy state holds p outside [0, 1]");
    learned[rank] = p;
  }
  learned_ = std::move(learned);
}

double AdaptiveFeedbackPolicy::learned_fraction(int rank) const {
  const auto it = learned_.find(rank);
  return it != learned_.end() ? it->second : -1.0;
}

std::unique_ptr<SchedulePolicy> make_policy(const std::string& name) {
  if (name == "static") return std::make_unique<StaticAnalyticPolicy>();
  if (name == "dynamic") return std::make_unique<DynamicBlockPolicy>();
  if (name == "adaptive") return std::make_unique<AdaptiveFeedbackPolicy>();
  throw InvalidArgument("unknown scheduling policy: " + name +
                        " (static | dynamic | adaptive)");
}

}  // namespace prs::core
