// Writing your own SPMD application against the PRS API.
//
// The scenario: per-sensor anomaly statistics over a stream of readings —
// map tasks scan a slice of readings and emit (sensor id, partial stats);
// the combiner merges partials; finalize turns them into z-score bounds.
// The cost model declares the app's arithmetic intensity so the analytic
// scheduler can place it (a bandwidth-bound scan -> mostly CPU).
//
// Also shows: dynamic (block-polling) scheduling and the iterative driver
// are available to custom apps exactly as to the built-in ones.
//
//   $ ./examples/custom_app
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/cluster.hpp"
#include "core/job_runner.hpp"

namespace {

using namespace prs;

/// Per-sensor running statistics (mergeable).
struct SensorStats {
  long count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 1e300;
  double max = -1e300;

  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
  double stddev() const {
    if (count < 2) return 0.0;
    const double m = mean();
    return std::sqrt(sum_sq / static_cast<double>(count) - m * m);
  }
};

struct Reading {
  int sensor;
  double value;
};

core::MapReduceSpec<int, SensorStats> sensor_spec(
    std::shared_ptr<const std::vector<Reading>> readings, int sensors) {
  core::MapReduceSpec<int, SensorStats> spec;
  spec.name = "sensor-stats";

  spec.cpu_map = [readings, sensors](const core::InputSlice& s,
                                     core::Emitter<int, SensorStats>& e) {
    // Pre-aggregate per task, like a built-in combiner.
    std::vector<SensorStats> acc(static_cast<std::size_t>(sensors));
    for (std::size_t i = s.begin; i < s.end; ++i) {
      const auto& r = (*readings)[i];
      auto& st = acc[static_cast<std::size_t>(r.sensor)];
      st.count++;
      st.sum += r.value;
      st.sum_sq += r.value * r.value;
      st.min = std::min(st.min, r.value);
      st.max = std::max(st.max, r.value);
    }
    for (int k = 0; k < sensors; ++k) {
      if (acc[static_cast<std::size_t>(k)].count > 0) {
        e.emit(k, acc[static_cast<std::size_t>(k)]);
      }
    }
  };
  // The GPU kernel would compute the same partials; reuse the C++ payload.
  spec.gpu_map = spec.cpu_map;

  spec.combine = [](const SensorStats& a, const SensorStats& b) {
    SensorStats out = a;
    out.count += b.count;
    out.sum += b.sum;
    out.sum_sq += b.sum_sq;
    out.min = std::min(a.min, b.min);
    out.max = std::max(a.max, b.max);
    return out;
  };

  // Cost model: a streaming scan, ~6 flops per 16-byte reading.
  spec.cpu_flops_per_item = 6.0;
  spec.gpu_flops_per_item = 6.0;
  spec.ai_cpu = 6.0 / 16.0;
  spec.ai_gpu = 6.0 / 16.0;
  spec.gpu_data_cached = false;
  spec.item_bytes = 16.0;
  spec.pair_bytes = sizeof(SensorStats);
  spec.reduce_flops_per_pair = 5.0;
  return spec;
}

}  // namespace

int main() {
  constexpr int kSensors = 24;
  constexpr std::size_t kReadings = 200000;

  // Sensor 17 misbehaves: a wider distribution with a shifted mean.
  Rng rng(123);
  auto readings = std::make_shared<std::vector<Reading>>();
  readings->reserve(kReadings);
  for (std::size_t i = 0; i < kReadings; ++i) {
    const int s = static_cast<int>(rng.uniform_index(kSensors));
    const double v =
        s == 17 ? rng.normal(4.0, 3.0) : rng.normal(0.0, 1.0);
    readings->push_back({s, v});
  }

  sim::Simulator sim;
  core::Cluster cluster(sim, /*nodes=*/4, core::NodeConfig{});
  auto spec = sensor_spec(readings, kSensors);

  // Custom apps can pick either scheduling strategy from §III.B.2.
  core::JobConfig cfg;
  core::DynamicBlockPolicy dynamic;
  cfg.policy = &dynamic;
  auto result = core::run_job(cluster, spec, cfg, readings->size());

  std::printf("%-8s %8s %9s %9s   flag\n", "sensor", "count", "mean",
              "stddev");
  for (const auto& [sensor, st] : result.output) {
    const bool anomalous = std::fabs(st.mean()) > 1.0 || st.stddev() > 2.0;
    std::printf("%-8d %8ld %9.3f %9.3f   %s\n", sensor, st.count, st.mean(),
                st.stddev(), anomalous ? "<-- anomalous" : "");
  }

  std::printf("\nvirtual time %s; %llu map tasks (dynamic polling), "
              "%.0f%% of flops on CPU\n",
              prs::units::format_time(result.stats.elapsed).c_str(),
              static_cast<unsigned long long>(result.stats.map_tasks),
              result.stats.cpu_flops / result.stats.total_flops() * 100.0);
  return 0;
}
