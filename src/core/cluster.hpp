// The simulated GPU+CPU cluster the PRS runs on: fat nodes on a common
// fabric, plus per-node analytic schedulers built from their device specs.
//
// Nodes may be homogeneous (the paper's evaluated case — one NodeConfig for
// all) or inhomogeneous (the paper's §III.B.3.a / future-work case: the
// master task scheduler uses Eq (8)-derived capabilities to split input
// "among homogeneous or inhomogeneous fat nodes").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/fat_node.hpp"
#include "roofline/analytic_scheduler.hpp"
#include "simnet/fabric.hpp"
#include "simtime/simulator.hpp"

namespace prs::obs {
class TraceRecorder;
}

namespace prs::core {

/// Default interconnect: GigE-class links as on the paper's testbeds
/// (125 MB/s effective, 50 us end-to-end MPI latency — the combination that
/// reproduces the ~5% global-reduction overhead at 8 nodes in Fig. 6).
simnet::FabricSpec default_fabric_spec();

class Cluster {
 public:
  /// Homogeneous cluster: every node uses `node_config`.
  Cluster(sim::Simulator& sim, int nodes, NodeConfig node_config,
          simnet::FabricSpec fabric_spec);
  Cluster(sim::Simulator& sim, int nodes, NodeConfig node_config)
      : Cluster(sim, nodes, std::move(node_config), default_fabric_spec()) {}

  /// Inhomogeneous cluster: one config per node.
  Cluster(sim::Simulator& sim, std::vector<NodeConfig> node_configs,
          simnet::FabricSpec fabric_spec);
  Cluster(sim::Simulator& sim, std::vector<NodeConfig> node_configs)
      : Cluster(sim, std::move(node_configs), default_fabric_spec()) {}

  /// Exports the PRS_TRACE_DIR-owned trace, if any (see below).
  ~Cluster();

  int size() const { return static_cast<int>(nodes_.size()); }
  sim::Simulator& simulator() { return sim_; }
  FatNode& node(int rank);
  simnet::Fabric& fabric() { return *fabric_; }

  /// Device configuration of one node (all nodes share index 0's config in
  /// the homogeneous case).
  const NodeConfig& node_config(int rank = 0) const;

  /// True when every node has the same device configuration.
  bool homogeneous() const { return homogeneous_; }

  /// The roofline-derived analytic scheduler for one node's hardware.
  const roofline::AnalyticScheduler& scheduler(int rank = 0) const;

  // Aggregated utilization across all nodes.
  double total_cpu_busy() const;
  double total_gpu_busy() const;
  double total_cpu_flops() const;
  double total_gpu_flops() const;
  double total_pcie_bytes() const;
  void reset_counters();

  /// Attaches (or detaches, with nullptrs) fault-injection hooks on every
  /// device and on the fabric. run_job installs the injector here for the
  /// duration of a faulted job; detach only when the simulator is drained.
  void set_fault_hooks(simdev::ExecFaultHook* exec_hook,
                       simnet::NetFaultHook* net_hook);

 private:
  void build(const std::vector<NodeConfig>& configs);

  // Observability escape hatch: when $PRS_TRACE_DIR is set and the
  // simulator has no recorder attached yet, the cluster owns one and
  // exports <dir>/cluster<N>.json (+ .metrics.csv) on destruction. This is
  // how every bench/tool emits a timeline without per-call-site changes;
  // explicit attachments (prs_run --trace) always win.
  void maybe_attach_env_tracer();

  sim::Simulator& sim_;
  std::vector<NodeConfig> node_configs_;
  bool homogeneous_ = true;
  std::unique_ptr<simnet::Fabric> fabric_;
  std::vector<std::unique_ptr<FatNode>> nodes_;
  std::vector<std::unique_ptr<roofline::AnalyticScheduler>> schedulers_;
  std::unique_ptr<obs::TraceRecorder> env_tracer_;
  std::string env_trace_path_;  // without extension
};

}  // namespace prs::core
