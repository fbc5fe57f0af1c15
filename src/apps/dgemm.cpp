#include "apps/dgemm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"
#include "linalg/blas.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain for the A-block staging copy (memory bound).
constexpr std::size_t kCopyGrain = 64;

}  // namespace

double dgemm_block_ai(double block_rows, std::size_t k, std::size_t n) {
  PRS_REQUIRE(block_rows > 0.0, "block must be non-empty");
  const auto kd = static_cast<double>(k);
  const auto nd = static_cast<double>(n);
  const double flops = 2.0 * block_rows * nd * kd;
  const double traffic = block_rows * kd + kd * nd + block_rows * nd;
  return flops / traffic;
}

double dgemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return linalg::gemm_flops(static_cast<double>(m), static_cast<double>(n),
                            static_cast<double>(k));
}

DgemmSpec dgemm_spec(std::shared_ptr<DgemmState> state, std::size_t k,
                     std::size_t n) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  DgemmSpec spec;
  spec.name = "dgemm";
  spec.cpu_map = [state](const core::InputSlice& s,
                         core::Emitter<long, linalg::MatrixD>& e) {
    const auto& a = *state->a;
    const auto& b = *state->b;
    // Compute the C rows [s.begin, s.end) with the blocked kernel (the
    // "MKL path"); the CUDA path would call cuBLAS. It runs on the host
    // thread pool. With a shared C the rows go straight to their place and
    // the pair carries an empty block; without one, the A rows are staged
    // (also on the pool) and the block carries the C rows.
    if (state->c != nullptr) {
      linalg::gemm_blocked_rows(1.0, a, b, 0.0, *state->c, s.begin, s.end);
      e.emit(static_cast<long>(s.begin), linalg::MatrixD{});
      return;
    }
    linalg::MatrixD a_block(s.size(), a.cols());
    exec::parallel_for(s.begin, s.end, kCopyGrain,
                       [&](std::size_t rb, std::size_t re) {
                         for (std::size_t r = rb; r < re; ++r) {
                           for (std::size_t c = 0; c < a.cols(); ++c) {
                             a_block(r - s.begin, c) = a(r, c);
                           }
                         }
                       });
    linalg::MatrixD c_block(s.size(), b.cols(), 0.0);
    linalg::gemm_blocked(1.0, a_block, b, 0.0, c_block);
    e.emit(static_cast<long>(s.begin), std::move(c_block));
  };
  spec.gpu_map = spec.cpu_map;
  spec.modeled_map = [](const core::InputSlice& s,
                        core::Emitter<long, linalg::MatrixD>& e) {
    e.emit(static_cast<long>(s.begin), linalg::MatrixD{});
  };
  spec.combine = [](const linalg::MatrixD& a, const linalg::MatrixD& b) {
    // Row-block keys are unique; defensively keep the larger block.
    return a.size() >= b.size() ? a : b;
  };

  const auto kd = static_cast<double>(k);
  const auto nd = static_cast<double>(n);
  spec.cpu_flops_per_item = 2.0 * nd * kd;  // one row of C
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  // Per-item (per-row) steady-state AI; the size-dependent form feeds the
  // MinBs/stream machinery through ai_of_block.
  spec.ai_cpu = dgemm_block_ai(256.0, k, n);  // typical CPU block
  spec.ai_gpu = dgemm_block_ai(1024.0, k, n);
  spec.ai_of_block = [k, n, kd](double block_bytes) {
    return dgemm_block_ai(std::max(1.0, block_bytes / kd), k, n);
  };
  spec.gpu_data_cached = false;
  spec.item_bytes = kd;  // one row of A (element-counted)
  spec.pair_bytes = nd;  // one row of C per input row, shipped in blocks
  spec.gpu_item_d2h_bytes = nd;
  spec.reduce_flops_per_pair = 1.0;
  // High-AI BLAS3 kernels run close to roofline on both backends.
  spec.efficiency = {0.85, 0.85, 0.7, 0.7};
  return spec;
}

linalg::MatrixD dgemm_prs(core::Cluster& cluster, const linalg::MatrixD& a,
                          const linalg::MatrixD& b,
                          const core::JobConfig& cfg,
                          core::JobStats* stats_out) {
  PRS_REQUIRE(a.cols() == b.rows(), "dgemm: inner dimensions must match");
  auto state = std::make_shared<DgemmState>();
  state->a = &a;
  state->b = &b;
  DgemmSpec spec = dgemm_spec(state, a.cols(), b.cols());

  // The payloads write C in place, so the job never holds per-task C
  // blocks beside C (DESIGN.md §4f).
  linalg::MatrixD c;
  if (cfg.mode == core::ExecutionMode::kFunctional) {
    c = linalg::MatrixD(a.rows(), b.cols(), 0.0);
    state->c = &c;
  }
  auto result = core::run_job(cluster, spec, cfg, a.rows());
  if (stats_out != nullptr) *stats_out = result.stats;
  return c;
}

core::JobStats dgemm_prs_modeled(core::Cluster& cluster, std::size_t m,
                                 std::size_t n, std::size_t k,
                                 core::JobConfig cfg) {
  PRS_REQUIRE(m > 0 && n > 0 && k > 0, "modeled run needs a shape");
  cfg.mode = core::ExecutionMode::kModeled;
  auto state = std::make_shared<DgemmState>();
  DgemmSpec spec = dgemm_spec(state, k, n);
  auto result = core::run_job(cluster, spec, cfg, m);
  return result.stats;
}

}  // namespace prs::apps
