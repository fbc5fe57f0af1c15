// GPU device model: CUDA-like streams, async copies and kernel launches on
// the virtual clock, with functional kernel payloads executed on the host.
//
// Semantics mirrored from CUDA (what the paper's PRS uses):
//   * a Stream is an in-order queue of commands (H2D copy, kernel, D2H copy);
//   * commands in different streams may overlap, limited by the device's
//     hardware work queues (1 on Fermi => cross-stream serialization; many
//     on Kepler Hyper-Q => copy/compute overlap, Eq (9) of the paper);
//   * all H2D/D2H copies share one PCI-E link (BandwidthLink, FIFO);
//   * kernels serialize on the compute engine; a kernel's duration comes
//     from the roofline: max(flops / (eff_c * peak),
//                            mem_traffic / (eff_m * dram_bw)) + launch cost.
//
// Lifetime: the device must outlive every simulator event that touches it.
// Destroying a device closes its stream queues so the actor processes exit
// on the next run(); the intended pattern is to drain the simulator before
// tearing anything down.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "simdev/device_spec.hpp"
#include "simdev/fault_hook.hpp"
#include "simdev/workload.hpp"
#include "simtime/channel.hpp"
#include "simtime/future.hpp"
#include "simtime/resource.hpp"
#include "simtime/simulator.hpp"

namespace prs::simdev {

class GpuDevice;

/// A kernel launch request: timing descriptor + optional functional payload.
struct KernelDesc {
  std::string name;
  Workload workload;
  /// Fraction of the device's peak flop rate this kernel attains
  /// (per-application calibration, see core/calibration.hpp).
  double compute_efficiency = 1.0;
  /// Fraction of the device's DRAM bandwidth this kernel attains.
  double memory_efficiency = 1.0;
  /// Host-executed functional payload producing the kernel's real results;
  /// runs at kernel completion time. May be empty in modeled-only benches.
  std::function<void()> body;
  /// Optional out-flag set to true when fault injection fails this kernel
  /// (the body is then skipped but the completion future still resolves).
  bool* failed = nullptr;
};

/// RAII handle for a device-memory allocation (accounting only — the actual
/// bytes of functional payloads live in host containers).
class DeviceAllocation {
 public:
  DeviceAllocation() = default;
  DeviceAllocation(GpuDevice* dev, std::uint64_t bytes);
  DeviceAllocation(DeviceAllocation&& o) noexcept;
  DeviceAllocation& operator=(DeviceAllocation&& o) noexcept;
  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;
  ~DeviceAllocation();

  std::uint64_t size() const { return bytes_; }
  bool valid() const { return dev_ != nullptr; }
  void release();

 private:
  GpuDevice* dev_ = nullptr;
  std::uint64_t bytes_ = 0;
};

/// In-order command queue bound to one GpuDevice.
class Stream {
 public:
  /// Enqueues a host-to-device copy; the future resolves when it completes.
  sim::Future<sim::Unit> memcpy_h2d(double bytes);

  /// Enqueues a device-to-host copy.
  sim::Future<sim::Unit> memcpy_d2h(double bytes);

  /// Enqueues a kernel launch.
  sim::Future<sim::Unit> launch(KernelDesc kernel);

  /// Future resolving when every previously enqueued command has finished
  /// (CUDA stream synchronize).
  sim::Future<sim::Unit> synchronize();

  int id() const { return id_; }

 private:
  friend class GpuDevice;
  struct Command {
    enum class Type { kCopyH2D, kCopyD2H, kKernel } type;
    double bytes = 0.0;
    KernelDesc kernel;
    sim::Promise<sim::Unit> done;
  };

  Stream(GpuDevice& dev, int id);
  sim::Future<sim::Unit> enqueue(Command cmd);

  GpuDevice& dev_;
  int id_;
  std::unique_ptr<sim::Channel<std::shared_ptr<Command>>> queue_;
  sim::Future<sim::Unit> last_op_;  // for synchronize()
};

/// One simulated GPU card.
class GpuDevice {
 public:
  GpuDevice(sim::Simulator& sim, DeviceSpec spec);
  ~GpuDevice();
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  const DeviceSpec& spec() const { return spec_; }
  sim::Simulator& simulator() { return sim_; }

  /// Creates a new stream; streams live as long as the device.
  Stream& create_stream();

  /// Stream 0, created on construction.
  Stream& default_stream() { return *streams_.front(); }

  /// Returns stream `index`, creating streams up to it on demand. Lets
  /// repeated jobs reuse a stream pool instead of growing it per job.
  Stream& stream(int index);

  /// Streams created on this device so far (the service layer reports this
  /// per-vGPU footprint to the VirtualGpuPool at scheduling gates).
  int stream_count() const { return static_cast<int>(streams_.size()); }

  /// Device-memory accounting. Throws ResourceExhausted past capacity.
  DeviceAllocation allocate(std::uint64_t bytes);
  std::uint64_t memory_used() const { return memory_used_; }
  std::uint64_t memory_capacity() const { return spec_.memory_bytes; }

  /// Roofline duration of a kernel on this device (without queueing).
  double kernel_duration(const KernelDesc& k) const;

  // Utilization counters for profiling-based workload splits (Table 5).
  double compute_busy_time() const { return compute_busy_; }
  double flops_executed() const { return flops_executed_; }
  double pcie_bytes() const { return pcie_.bytes_transferred(); }
  std::uint64_t kernels_launched() const { return kernels_launched_; }

  /// Resets utilization counters (between bench phases).
  void reset_counters();

  /// Trace labels (obs/trace.hpp): spans go on track
  /// (`process`, "<gpu_label>.s<stream>"). FatNode sets ("node<r>",
  /// "gpu<g>"); standalone devices default to ("dev", "gpu").
  void set_trace_context(std::string process, std::string gpu_label) {
    trace_process_ = std::move(process);
    trace_gpu_label_ = std::move(gpu_label);
  }

  /// Attaches (or detaches, with nullptr) the fault-injection hook and
  /// records this card's cluster coordinates. Costs one null check per
  /// stream command when detached. A command the hook hangs kills its
  /// stream's worker, so everything queued behind it also never completes —
  /// matching the in-order semantics of a wedged CUDA stream.
  void set_fault_context(ExecFaultHook* hook, int node, int card) {
    fault_hook_ = hook;
    fault_node_ = node;
    fault_card_ = card;
  }

 private:
  friend class Stream;
  friend class DeviceAllocation;

  sim::Process stream_worker(Stream& stream);
  void free_bytes(std::uint64_t bytes);

  sim::Simulator& sim_;
  DeviceSpec spec_;
  sim::BandwidthLink pcie_;
  sim::Resource compute_engine_;
  sim::Resource hw_queues_;
  std::deque<std::unique_ptr<Stream>> streams_;
  std::uint64_t memory_used_ = 0;
  double compute_busy_ = 0.0;
  double flops_executed_ = 0.0;
  std::uint64_t kernels_launched_ = 0;
  std::string trace_process_ = "dev";
  std::string trace_gpu_label_ = "gpu";
  ExecFaultHook* fault_hook_ = nullptr;
  int fault_node_ = -1;
  int fault_card_ = -1;
};

}  // namespace prs::simdev
