// Virtual GPUs multiplexed over the physical simulated cards (Li et al.,
// "Efficient Resource Sharing Through GPU Virtualization on Accelerated HPC
// Systems" — see PAPERS.md).
//
// A VirtualGpuPool owns the inventory of physical card *slots*: each of the
// `cards` physical devices exposes `slots_per_card` vGPU slots, so a pool
// with 2 cards at 4x oversubscription can lease 8 vGPUs. A tenant job asks
// for N vGPUs (one per simulated card of its private cluster) and gets a
// VGpuLease — an RAII handle pinning N slots onto concrete physical cards
// (deterministic least-loaded placement, ties broken by card index).
//
// Per-vGPU accounting, the isolation half of the design:
//   * memory: each lease carries a per-vGPU memory quota. vgpu_spec()
//     shapes the job's DeviceSpec so the simulated card enforces
//     min(physical capacity, quota) — an over-quota tenant gets a
//     deterministic ResourceExhausted from its *own* allocation, never a
//     corrupted neighbour.
//   * streams/memory in use: the service reports the job's live stream and
//     device-memory footprint at every scheduling gate; on release both
//     must return to zero, which is how the cancel tests prove nothing
//     leaked.
//
// The pool is bookkeeping only (the physical GpuDevice objects live inside
// each job's cluster); it is not thread-safe — the JobServer serializes all
// calls under its own lock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simdev/device_spec.hpp"

namespace prs::simdev {

class VirtualGpuPool;

struct VGpuPoolConfig {
  /// Physical simulated cards backing the pool.
  int cards = 1;
  /// vGPU slots per physical card (1 = no oversubscription).
  int slots_per_card = 1;
};

/// RAII lease of `size()` vGPU slots. Move-only; releasing (or destroying)
/// returns the slots and clears the per-lease accounting.
class VGpuLease {
 public:
  VGpuLease() = default;
  VGpuLease(VGpuLease&& o) noexcept;
  VGpuLease& operator=(VGpuLease&& o) noexcept;
  VGpuLease(const VGpuLease&) = delete;
  VGpuLease& operator=(const VGpuLease&) = delete;
  ~VGpuLease();

  bool valid() const { return pool_ != nullptr; }
  int size() const { return static_cast<int>(cards_.size()); }
  /// Physical card index backing vGPU i of this lease.
  const std::vector<int>& cards() const { return cards_; }
  std::uint64_t memory_quota() const { return memory_quota_; }
  const std::string& owner() const { return owner_; }
  int id() const { return id_; }

  void release();

 private:
  friend class VirtualGpuPool;
  VGpuLease(VirtualGpuPool* pool, int id, std::string owner,
            std::vector<int> cards, std::uint64_t memory_quota)
      : pool_(pool),
        id_(id),
        owner_(std::move(owner)),
        cards_(std::move(cards)),
        memory_quota_(memory_quota) {}

  VirtualGpuPool* pool_ = nullptr;
  int id_ = -1;
  std::string owner_;
  std::vector<int> cards_;  // physical card per vGPU
  std::uint64_t memory_quota_ = 0;
};

class VirtualGpuPool {
 public:
  explicit VirtualGpuPool(VGpuPoolConfig cfg);
  VirtualGpuPool(const VirtualGpuPool&) = delete;
  VirtualGpuPool& operator=(const VirtualGpuPool&) = delete;

  int cards() const { return cfg_.cards; }
  int capacity() const { return cfg_.cards * cfg_.slots_per_card; }
  int free_slots() const { return capacity() - slots_in_use_; }
  const VGpuPoolConfig& config() const { return cfg_; }

  bool can_acquire(int count) const { return count <= free_slots(); }

  /// Leases `count` vGPU slots for `owner`. `memory_quota` caps each vGPU's
  /// device memory (0 = full physical card). Throws ResourceExhausted when
  /// fewer than `count` slots are free. Placement is deterministic:
  /// repeatedly pick the card with the fewest occupied slots (lowest index
  /// on ties).
  VGpuLease acquire(const std::string& owner, int count,
                    std::uint64_t memory_quota = 0);

  /// DeviceSpec a leased vGPU presents to its job: the job's own `card`
  /// with memory capped to the lease quota.
  DeviceSpec vgpu_spec(const VGpuLease& lease, DeviceSpec card) const;

  /// Reports the lease's current footprint on its physical cards (live
  /// streams and allocated device bytes across the job's simulated cards).
  /// Called at every scheduling gate; replaced, not accumulated.
  void report_usage(const VGpuLease& lease, std::uint64_t open_streams,
                    std::uint64_t memory_in_use);

  // Pool-wide introspection (the leak checks of the cancel tests).
  int active_leases() const { return active_leases_; }
  std::uint64_t open_streams() const;
  std::uint64_t memory_in_use() const;
  int card_vgpus(int card) const;  // occupied slots on one card

 private:
  friend class VGpuLease;
  void release(VGpuLease& lease);

  struct LeaseUsage {
    std::uint64_t streams = 0;
    std::uint64_t memory = 0;
  };

  VGpuPoolConfig cfg_;
  std::vector<int> card_vgpus_;       // occupied slots per card
  std::map<int, LeaseUsage> usage_;  // live leases by id
  int next_lease_id_ = 1;
  int slots_in_use_ = 0;
  int active_leases_ = 0;
};

}  // namespace prs::simdev
