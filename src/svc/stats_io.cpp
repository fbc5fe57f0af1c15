#include "svc/stats_io.hpp"

#include <cstdarg>
#include <cstdio>

#include "common/units.hpp"

namespace prs::svc {
namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string job_stats_text(const core::JobStats& s, int nodes,
                           const exec::PoolStats* pool) {
  std::string out;
  appendf(out, "\n-- runtime statistics --\n");
  appendf(out, "virtual time        %s\n",
          units::format_time(s.elapsed).c_str());
  appendf(out, "throughput          %s (%s per node)\n",
          units::format_flops(s.flops_rate()).c_str(),
          units::format_flops(s.flops_rate() / nodes).c_str());
  appendf(out, "CPU / GPU flops     %.3g / %.3g (CPU share %.1f%%)\n",
          s.cpu_flops, s.gpu_flops,
          s.total_flops() > 0 ? s.cpu_flops / s.total_flops() * 100 : 0);
  appendf(out, "map tasks           %llu (+%llu reduce)\n",
          static_cast<unsigned long long>(s.map_tasks),
          static_cast<unsigned long long>(s.reduce_tasks));
  appendf(out, "PCI-E traffic       %s\n",
          units::format_bytes(s.pcie_bytes).c_str());
  appendf(out, "network traffic     %s\n",
          units::format_bytes(s.network_bytes).c_str());
  const double phases = s.startup_time + s.map_time + s.shuffle_time +
                        s.reduce_time + s.gather_time;
  if (phases > 0) {
    appendf(out,
            "phase breakdown     startup %.0f%% | map %.0f%% | shuffle "
            "%.0f%% | reduce %.0f%% | gather %.0f%%\n",
            s.startup_time / phases * 100, s.map_time / phases * 100,
            s.shuffle_time / phases * 100, s.reduce_time / phases * 100,
            s.gather_time / phases * 100);
  }
  if (pool != nullptr && pool->jobs > 0) {
    appendf(out,
            "host pool           %d thread(s) | %llu region(s) | %llu "
            "chunks (%llu stolen) | occupancy %.0f%%\n",
            pool->threads, static_cast<unsigned long long>(pool->jobs),
            static_cast<unsigned long long>(pool->chunks),
            static_cast<unsigned long long>(pool->stolen_chunks),
            pool->occupancy() * 100.0);
  }
  return out;
}

std::string job_stats_json(const core::JobStats& stats) {
  std::string out = "{";
  bool first = true;
  core::visit_stats_fields(stats, [&](const char* name, const auto& value) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    appendf(out, "%.17g", static_cast<double>(value));
  });
  out += '}';
  return out;
}

}  // namespace prs::svc
