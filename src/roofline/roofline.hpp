// The roofline performance model (Williams et al.) specialized to the
// paper's Table 2 parameters: peak flops, DRAM bandwidth, and — for GPUs —
// PCI-E staging bandwidth.
//
// Two variants per the paper's Eq (6)/(7):
//   * resident: data already in the device's memory;
//         F = min(P, A * B_dram)
//   * staged (GPU only): input streams CPU memory -> PCI-E -> GPU DRAM, with
//     the serial-sum cost the paper uses:
//         A*S/F = S/B_dram + S/B_pcie   =>   F = A / (1/B_dram + 1/B_pcie)
//     capped at P. The ridge point is where the two regimes meet.
#pragma once

#include "simdev/device_spec.hpp"

namespace prs::roofline {

class RooflineModel {
 public:
  explicit RooflineModel(simdev::DeviceSpec spec);

  const simdev::DeviceSpec& spec() const { return spec_; }

  /// Attainable flop rate at arithmetic intensity `ai`, data resident in
  /// device memory: min(P, ai * B_dram).
  double attainable_flops(double ai) const;

  /// Attainable flop rate when input must be staged over PCI-E
  /// (Eq (7) first case, capped at peak). Requires a GPU spec.
  double attainable_flops_staged(double ai) const;

  /// Ridge point (flops/byte) for resident data: P / B_dram
  /// (Acr in Eq (6) for CPUs, the cached-data Agr for GPUs).
  double ridge_point() const;

  /// Ridge point with PCI-E staging: P * (1/B_dram + 1/B_pcie)
  /// (Agr in Eq (7)). Requires a GPU spec.
  double ridge_point_staged() const;

  /// Time to process `bytes` of input at arithmetic intensity `ai`
  /// (resident data): bytes * ai / attainable_flops(ai).
  double process_time(double ai, double bytes) const;

 private:
  simdev::DeviceSpec spec_;
};

}  // namespace prs::roofline
