#include "simdev/virtual_gpu.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace prs::simdev {

VGpuLease::VGpuLease(VGpuLease&& o) noexcept
    : pool_(o.pool_),
      id_(o.id_),
      owner_(std::move(o.owner_)),
      cards_(std::move(o.cards_)),
      memory_quota_(o.memory_quota_) {
  o.pool_ = nullptr;
  o.id_ = -1;
}

VGpuLease& VGpuLease::operator=(VGpuLease&& o) noexcept {
  if (this != &o) {
    release();
    pool_ = o.pool_;
    id_ = o.id_;
    owner_ = std::move(o.owner_);
    cards_ = std::move(o.cards_);
    memory_quota_ = o.memory_quota_;
    o.pool_ = nullptr;
    o.id_ = -1;
  }
  return *this;
}

VGpuLease::~VGpuLease() { release(); }

void VGpuLease::release() {
  if (pool_ != nullptr) {
    pool_->release(*this);
    pool_ = nullptr;
    id_ = -1;
    cards_.clear();
  }
}

VirtualGpuPool::VirtualGpuPool(VGpuPoolConfig cfg) : cfg_(std::move(cfg)) {
  PRS_REQUIRE(cfg_.cards >= 1, "vGPU pool needs at least one physical card");
  PRS_REQUIRE(cfg_.slots_per_card >= 1,
              "vGPU pool needs at least one slot per card");
  card_vgpus_.resize(static_cast<std::size_t>(cfg_.cards));
}

VGpuLease VirtualGpuPool::acquire(const std::string& owner, int count,
                                  std::uint64_t memory_quota) {
  PRS_REQUIRE(count >= 1, "vGPU lease needs at least one slot");
  if (count > free_slots()) {
    throw ResourceExhausted(
        "vGPU pool exhausted: " + std::to_string(count) +
        " slot(s) requested, " + std::to_string(free_slots()) + " of " +
        std::to_string(capacity()) + " free");
  }
  std::vector<int> cards;
  cards.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Least-loaded placement, lowest card index on ties — deterministic.
    int best = -1;
    for (int c = 0; c < cfg_.cards; ++c) {
      const int vgpus = card_vgpus(c);
      if (vgpus >= cfg_.slots_per_card) continue;
      if (best < 0 || vgpus < card_vgpus(best)) best = c;
    }
    PRS_CHECK(best >= 0, "free_slots() said slots were free");
    ++card_vgpus_[static_cast<std::size_t>(best)];
    ++slots_in_use_;
    cards.push_back(best);
  }
  ++active_leases_;
  const int id = next_lease_id_++;
  usage_[id] = LeaseUsage{};
  return VGpuLease(this, id, owner, std::move(cards), memory_quota);
}

void VirtualGpuPool::release(VGpuLease& lease) {
  for (int c : lease.cards_) {
    int& vgpus = card_vgpus_[static_cast<std::size_t>(c)];
    PRS_CHECK(vgpus > 0, "vGPU release underflow");
    --vgpus;
    --slots_in_use_;
  }
  usage_.erase(lease.id_);
  --active_leases_;
}

DeviceSpec VirtualGpuPool::vgpu_spec(const VGpuLease& lease,
                                     DeviceSpec card) const {
  if (lease.memory_quota() > 0) {
    card.memory_bytes = std::min(card.memory_bytes, lease.memory_quota());
  }
  card.name = "vGPU(" + card.name + ")";
  return card;
}

void VirtualGpuPool::report_usage(const VGpuLease& lease,
                                  std::uint64_t open_streams,
                                  std::uint64_t memory_in_use) {
  auto it = usage_.find(lease.id());
  PRS_REQUIRE(it != usage_.end(), "usage report for a released lease");
  it->second.streams = open_streams;
  it->second.memory = memory_in_use;
}

std::uint64_t VirtualGpuPool::open_streams() const {
  std::uint64_t n = 0;
  for (const auto& [id, u] : usage_) n += u.streams;
  return n;
}

std::uint64_t VirtualGpuPool::memory_in_use() const {
  std::uint64_t n = 0;
  for (const auto& [id, u] : usage_) n += u.memory;
  return n;
}

int VirtualGpuPool::card_vgpus(int card) const {
  PRS_REQUIRE(card >= 0 && card < cfg_.cards, "card index out of range");
  return card_vgpus_[static_cast<std::size_t>(card)];
}

}  // namespace prs::simdev
