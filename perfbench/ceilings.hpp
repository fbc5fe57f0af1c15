// Host ceilings measured in the same run as the per-layer metrics, so each
// layer's attained rate is judged against this machine (the paper's roofline
// applied to the runtime itself).
#pragma once

#include <cstddef>

namespace perfbench {

struct HostCeilings {
  double peak_gflops = 0.0;  // FMA throughput on register-resident data
  double mem_gbs = 0.0;      // streaming read bandwidth
  double llc_mb = 0.0;       // last-level cache size the stream is sized by
  double stream_mb = 0.0;    // size of the streamed array (>= 4x llc_mb)
};

/// Measures both ceilings with `threads` threads.
HostCeilings measure_ceilings(int threads);

/// Attainable rate for a kernel of arithmetic intensity `flops_per_byte`.
inline double roofline_bound(const HostCeilings& c, double flops_per_byte) {
  const double mem_bound = flops_per_byte * c.mem_gbs;
  return mem_bound < c.peak_gflops ? mem_bound : c.peak_gflops;
}

}  // namespace perfbench
