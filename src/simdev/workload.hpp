// Workload descriptors: what a task *costs*, independent of what it computes.
//
// The runtime separates a task's functional payload (real C++ code producing
// real results) from its resource footprint. The footprint drives the
// virtual-time device models and the roofline scheduler; the payload drives
// correctness tests. This is the substitution that lets the reproduction run
// the paper's GPU-cluster experiments on any host.
#pragma once

#include "common/error.hpp"

namespace prs::simdev {

/// Resource footprint of one task/kernel execution.
struct Workload {
  /// Floating-point operations performed.
  double flops = 0.0;

  /// Bytes staged *into* the device before compute (PCI-E for GPUs).
  double bytes_in = 0.0;

  /// Bytes staged *out of* the device after compute.
  double bytes_out = 0.0;

  /// Device-memory traffic during the compute itself (>= unique bytes
  /// touched; reuse in cache reduces it, streaming increases it).
  double mem_traffic = 0.0;

  /// Arithmetic intensity A = flops / bytes of memory traffic — the X axis
  /// of the roofline plot.
  double arithmetic_intensity() const {
    PRS_REQUIRE(mem_traffic > 0.0,
                "arithmetic intensity needs positive memory traffic");
    return flops / mem_traffic;
  }

  /// Splits this workload proportionally: returns the `fraction` share.
  /// Used by the sub-task scheduler when dividing a partition.
  Workload scaled(double fraction) const {
    PRS_REQUIRE(fraction >= 0.0, "workload fraction must be non-negative");
    return Workload{flops * fraction, bytes_in * fraction,
                    bytes_out * fraction, mem_traffic * fraction};
  }

  Workload operator+(const Workload& o) const {
    return Workload{flops + o.flops, bytes_in + o.bytes_in,
                    bytes_out + o.bytes_out, mem_traffic + o.mem_traffic};
  }
};

}  // namespace prs::simdev
