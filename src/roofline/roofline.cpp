#include "roofline/roofline.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace prs::roofline {

RooflineModel::RooflineModel(simdev::DeviceSpec spec) : spec_(std::move(spec)) {
  PRS_REQUIRE(spec_.peak_flops > 0.0, "peak flops must be positive");
  PRS_REQUIRE(spec_.dram_bandwidth > 0.0, "DRAM bandwidth must be positive");
}

double RooflineModel::attainable_flops(double ai) const {
  PRS_REQUIRE(ai > 0.0, "arithmetic intensity must be positive");
  return std::min(spec_.peak_flops, ai * spec_.dram_bandwidth);
}

double RooflineModel::attainable_flops_staged(double ai) const {
  PRS_REQUIRE(ai > 0.0, "arithmetic intensity must be positive");
  PRS_REQUIRE(spec_.pcie_bandwidth > 0.0,
              "staged roofline needs a PCI-E bandwidth (GPU spec)");
  // Serial-sum staging cost per byte: 1/B_dram + 1/B_pcie (paper Eq (7)).
  const double per_byte = 1.0 / spec_.dram_bandwidth +
                          1.0 / spec_.pcie_bandwidth;
  return std::min(spec_.peak_flops, ai / per_byte);
}

double RooflineModel::ridge_point() const {
  return spec_.peak_flops / spec_.dram_bandwidth;
}

double RooflineModel::ridge_point_staged() const {
  PRS_REQUIRE(spec_.pcie_bandwidth > 0.0,
              "staged ridge point needs a PCI-E bandwidth (GPU spec)");
  return spec_.peak_flops *
         (1.0 / spec_.dram_bandwidth + 1.0 / spec_.pcie_bandwidth);
}

double RooflineModel::process_time(double ai, double bytes) const {
  PRS_REQUIRE(bytes >= 0.0, "bytes must be non-negative");
  return bytes * ai / attainable_flops(ai);
}

}  // namespace prs::roofline
