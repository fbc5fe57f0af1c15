#include "apps/gemv.hpp"

#include <span>

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"
#include "linalg/blas.hpp"
#include "simd/kernels.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain: one row is a 2*cols-flop dot product; 64 rows amortize
/// the hand-off at the paper's widths (cols ~ 1e4).
constexpr std::size_t kRowGrain = 64;

}  // namespace

std::vector<double> gemv_serial(const linalg::MatrixD& a,
                                const std::vector<double>& x) {
  PRS_REQUIRE(a.cols() == x.size(), "gemv shape mismatch");
  std::vector<double> y(a.rows(), 0.0);
  linalg::gemv(1.0, a, std::span<const double>(x), 0.0, std::span<double>(y));
  return y;
}

double gemv_flops_per_row(std::size_t cols) {
  return 2.0 * static_cast<double>(cols);
}

double gemv_arithmetic_intensity() {
  // Table 5: AI(GEMV) = 2 (element-counted convention, DESIGN.md).
  return 2.0;
}

GemvSpec gemv_spec(std::shared_ptr<GemvState> state, std::size_t cols) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  GemvSpec spec;
  spec.name = "gemv";
  spec.cpu_map = [state](const core::InputSlice& s,
                         core::Emitter<long, std::vector<double>>& e) {
    const auto& a = *state->a;
    const auto& x = *state->x;
    std::vector<double> segment(s.size(), 0.0);
    // Each row writes its own segment slot: trivially byte-identical for
    // any host thread count. row_dots accumulates each lane's row in the
    // same ascending-column order as the scalar dot, so it is also
    // byte-identical across SIMD levels.
    const simd::Kernels& kn = simd::active_kernels();
    exec::parallel_for(s.begin, s.end, kRowGrain,
                       [&](std::size_t rb, std::size_t re) {
                         kn.row_dots(a.row(rb), a.cols(), re - rb, a.cols(),
                                     x.data(),
                                     segment.data() + (rb - s.begin));
                       });
    e.emit(static_cast<long>(s.begin), std::move(segment));
  };
  spec.gpu_map = spec.cpu_map;  // cuBLAS path computes the same segments
  spec.modeled_map = [](const core::InputSlice& s,
                        core::Emitter<long, std::vector<double>>& e) {
    e.emit(static_cast<long>(s.begin), std::vector<double>{});
  };
  spec.combine = [](const std::vector<double>& a,
                    const std::vector<double>& b) {
    // Keys (segment start rows) are unique; nothing should collide. Keep a
    // defensive concatenation.
    std::vector<double> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
  };
  spec.cpu_flops_per_item = gemv_flops_per_row(cols);
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  spec.ai_cpu = gemv_arithmetic_intensity();
  spec.ai_gpu = spec.ai_cpu;
  spec.gpu_data_cached = false;  // single pass: GPU stages A over PCI-E
  spec.item_bytes = static_cast<double>(cols);  // one row, element-counted
  // One emitted pair per map task carries its whole result segment; size it
  // as the average segment (rows / tasks is unknown here, so per-row cost
  // lands on reduce_flops instead and the pair carries ~segment elements).
  spec.pair_bytes = 64.0;
  spec.reduce_flops_per_pair = 1.0;
  spec.gpu_item_d2h_bytes = 1.0;  // one result element per row
  spec.efficiency = core::calib::kGemv;
  return spec;
}

std::vector<double> gemv_prs(core::Cluster& cluster, const linalg::MatrixD& a,
                             const std::vector<double>& x,
                             const core::JobConfig& cfg,
                             core::JobStats* stats_out) {
  PRS_REQUIRE(a.cols() == x.size(), "gemv shape mismatch");
  auto state = std::make_shared<GemvState>();
  state->a = &a;
  state->x = &x;
  GemvSpec spec = gemv_spec(state, a.cols());

  auto result = core::run_job(cluster, spec, cfg, a.rows());
  if (stats_out != nullptr) *stats_out = result.stats;

  std::vector<double> y;
  if (cfg.mode == core::ExecutionMode::kFunctional) {
    y.resize(a.rows(), 0.0);
    for (const auto& [start, segment] : result.output) {
      PRS_CHECK(static_cast<std::size_t>(start) + segment.size() <= y.size(),
                "segment out of range");
      std::copy(segment.begin(), segment.end(),
                y.begin() + static_cast<std::ptrdiff_t>(start));
    }
  }
  return y;
}

core::JobStats gemv_prs_modeled(core::Cluster& cluster, std::size_t rows,
                                std::size_t cols, core::JobConfig cfg) {
  PRS_REQUIRE(rows > 0 && cols > 0, "modeled run needs a shape");
  cfg.mode = core::ExecutionMode::kModeled;
  auto state = std::make_shared<GemvState>();  // never dereferenced
  GemvSpec spec = gemv_spec(state, cols);
  auto result = core::run_job(cluster, spec, cfg, rows);
  return result.stats;
}

}  // namespace prs::apps
