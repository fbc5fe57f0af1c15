#include "obs/pool_metrics.hpp"

namespace prs::obs {
namespace {

/// Counters are monotonic adders; a snapshot "set" is an add of the delta,
/// which also keeps repeated snapshots idempotent for unchanged stats.
void set_counter(MetricsRegistry& m, const std::string& name, double value) {
  Counter& c = m.counter(name);
  c.add(value - c.value());
}

}  // namespace

void record_pool_metrics(MetricsRegistry& m, const exec::PoolStats& s) {
  set_counter(m, "exec.pool.jobs", static_cast<double>(s.jobs));
  set_counter(m, "exec.pool.nested_jobs", static_cast<double>(s.nested_jobs));
  set_counter(m, "exec.pool.chunks", static_cast<double>(s.chunks));
  set_counter(m, "exec.pool.stolen_chunks",
              static_cast<double>(s.stolen_chunks));
  set_counter(m, "exec.pool.caller_chunks",
              static_cast<double>(s.caller_chunks));
  set_counter(m, "exec.pool.lane_engagements",
              static_cast<double>(s.lane_engagements));
  set_counter(m, "exec.pool.lane_slots", static_cast<double>(s.lane_slots));
  set_counter(m, "exec.pool.threads", static_cast<double>(s.threads));
  set_counter(m, "exec.pool.occupancy", s.occupancy());
}

void record_pool_metrics(MetricsRegistry& m) {
  record_pool_metrics(m, exec::ThreadPool::instance().stats());
}

}  // namespace prs::obs
