// The heterogeneous MapReduce programming interface (paper Table 1).
//
// The paper's user-implemented API has three backend flavours —
// cpu_mapreduce, gpu_device_mapreduce, gpu_host_mapreduce — of four
// functions: map, reduce (here: the combine/finalize pair), combiner and
// compare. This header is the modern-C++ equivalent:
//
//   * `cpu_map` / `gpu_map` — per-backend map over an input slice, emitting
//     intermediate key/value pairs (gpu_map defaults to cpu_map, matching
//     the paper's remark that device sources are often identical);
//   * `combine` — the associative/commutative combiner applied node-locally
//     before the shuffle *and* as the reduce operator after it;
//   * `finalize` — the reduce-side transform producing final values;
//   * ordering of keys replaces `compare` (results are sorted std::maps).
//
// Each spec also carries the *cost model* the runtime charges virtual time
// with: per-item flops, arithmetic intensities (paper Table 5 formulas),
// staging byte counts and the calibrated efficiency factors. Byte fields
// follow the paper's element-counted AI convention (DESIGN.md).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/job.hpp"

namespace prs::core {

/// Collects intermediate key/value pairs emitted by one map task.
template <typename K, typename V>
class Emitter {
 public:
  void emit(K key, V value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }

  /// Pre-sizes the pair buffer (the runner does this on the simulator
  /// thread before payloads run on pool workers; DESIGN.md §4f).
  void reserve(std::size_t pairs) { pairs_.reserve(pairs); }

  std::vector<std::pair<K, V>>& pairs() { return pairs_; }
  const std::vector<std::pair<K, V>>& pairs() const { return pairs_; }
  std::size_t size() const { return pairs_.size(); }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

template <typename K, typename V>
struct MapReduceSpec {
  using MapFn = std::function<void(const InputSlice&, Emitter<K, V>&)>;
  using CombineFn = std::function<V(const V&, const V&)>;
  using FinalizeFn = std::function<V(const K&, V)>;

  std::string name;

  // -- functional payloads ---------------------------------------------------
  /// C/C++ map implementation (cpu_mapreduce in Table 1). Required.
  MapFn cpu_map;
  /// CUDA map implementation (gpu_device/gpu_host_mapreduce). Defaults to
  /// cpu_map when empty.
  MapFn gpu_map;
  /// Cheap stand-in used in ExecutionMode::kModeled: must emit pairs of the
  /// right *shape* (same keys) without touching real data. Defaults to
  /// emitting nothing.
  MapFn modeled_map;
  /// Associative + commutative combiner (required): used node-locally
  /// before the shuffle and as the reduce operator. Several host-pool
  /// workers may call it at once, so it must not write shared state.
  CombineFn combine;
  /// Run the combiner node-locally before the shuffle (the paper's
  /// optional combiner(), Table 1). Disabling it ships every raw emitted
  /// pair over the network — correct but more traffic; the ablation knob
  /// for what local combining buys.
  bool local_combine = true;
  /// Optional final transform applied on the master after the reduce.
  FinalizeFn finalize;

  // -- cost model -------------------------------------------------------------
  /// Flops per input item on each backend (usually equal).
  double cpu_flops_per_item = 0.0;
  double gpu_flops_per_item = 0.0;
  /// Arithmetic intensities Ac / Ag (paper Table 5). Memory traffic per
  /// item is derived as flops/AI.
  double ai_cpu = 1.0;
  double ai_gpu = 1.0;
  /// True when the GPU input is loop-invariant and cached in device memory
  /// across iterations (C-means/GMM); false when every pass stages over
  /// PCI-E (GEMV).
  bool gpu_data_cached = false;
  /// Wire/staging size of one input item (element-counted, see DESIGN.md).
  double item_bytes = 0.0;
  /// Wire size of one intermediate pair (shuffle + gather cost).
  double pair_bytes = 16.0;
  /// Per-GPU-processed-item bytes copied device->host after the map stage
  /// (per-iteration intermediate data such as partial membership rows —
  /// the PRS generality cost the MPI baselines avoid by keeping state on
  /// the GPU). Element-counted like the other byte fields.
  double gpu_item_d2h_bytes = 0.0;
  /// Flops to combine/reduce one intermediate pair.
  double reduce_flops_per_pair = 1.0;
  /// Calibrated roofline-efficiency factors for this application.
  calib::AppEfficiency efficiency;

  /// AI as a function of GPU block size in bytes (Fag, Eq (10)); defaults
  /// to the constant ai_gpu.
  std::function<double(double)> ai_of_block;

  const MapFn& gpu_map_or_default() const {
    return gpu_map ? gpu_map : cpu_map;
  }

  double ai_of_block_or_default(double block_bytes) const {
    return ai_of_block ? ai_of_block(block_bytes) : ai_gpu;
  }

  /// Memory traffic per item (element-counted bytes) on each backend.
  double cpu_traffic_per_item() const { return cpu_flops_per_item / ai_cpu; }
  double gpu_traffic_per_item() const { return gpu_flops_per_item / ai_gpu; }

  void validate() const {
    PRS_REQUIRE(!name.empty(), "spec needs a name");
    PRS_REQUIRE(cpu_map != nullptr, "spec needs a cpu_map");
    PRS_REQUIRE(combine != nullptr, "spec needs a combiner");
    PRS_REQUIRE(cpu_flops_per_item >= 0.0 && gpu_flops_per_item >= 0.0,
                "per-item flops must be non-negative");
    PRS_REQUIRE(ai_cpu > 0.0 && ai_gpu > 0.0,
                "arithmetic intensities must be positive");
    PRS_REQUIRE(item_bytes >= 0.0 && pair_bytes >= 0.0,
                "byte sizes must be non-negative");
  }
};

}  // namespace prs::core
