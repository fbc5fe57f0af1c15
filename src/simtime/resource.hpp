// Contended resources on the virtual clock.
//
// Resource      — counting semaphore with strict FIFO grant order; models
//                 things like "k CPU worker slots" or "one GPU context".
// BandwidthLink — serial FIFO server that charges size/bandwidth (+latency);
//                 models the PCI-E bus, DRAM channels and network links.
//                 Utilization accounting feeds the roofline validation tests.
#pragma once

#include <coroutine>
#include <deque>
#include <memory>

#include "common/error.hpp"
#include "simtime/simulator.hpp"

namespace prs::sim {

/// Counting semaphore with FIFO fairness. acquire() is awaitable.
class Resource {
 public:
  Resource(Simulator& sim, std::size_t capacity)
      : sim_(sim), capacity_(capacity), available_(capacity) {
    PRS_REQUIRE(capacity > 0, "resource capacity must be positive");
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  /// A resource may be destroyed while a suspended process still holds a
  /// ResourceGuard on it (a job aborted mid-run leaves its device tasks
  /// suspended until the Simulator destroys them). Those guards see the
  /// shared `alive` flag drop and release nothing.
  ~Resource() { *alive_ = false; }

  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return available_; }
  std::size_t queued() const { return waiters_.size(); }

  struct AcquireAwaiter {
    Resource& res;
    std::size_t amount;

    bool await_ready() {
      // Strict FIFO: even if units are free, queued waiters go first.
      if (res.waiters_.empty() && res.available_ >= amount) {
        res.available_ -= amount;  // grant inline
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      res.waiters_.push_back({amount, h});
    }
    void await_resume() const {
      // Units were already deducted, either inline in await_ready or by
      // grant() before the resume event was scheduled.
    }
  };

  /// co_await res.acquire(n): blocks until n units can be granted.
  AcquireAwaiter acquire(std::size_t amount = 1) {
    PRS_REQUIRE(amount > 0 && amount <= capacity_,
                "acquire amount must be in [1, capacity]");
    return AcquireAwaiter{*this, amount};
  }

  /// Returns n units and grants queued waiters in FIFO order.
  void release(std::size_t amount = 1) {
    available_ += amount;
    PRS_CHECK(available_ <= capacity_, "resource released above capacity");
    grant();
  }

 private:
  struct Waiter {
    std::size_t amount;
    std::coroutine_handle<> handle;
  };

  void grant() {
    // Deduct units at grant time (not at resume time) so that acquisitions
    // racing between grant and resume cannot double-spend them.
    while (!waiters_.empty() && waiters_.front().amount <= available_) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      available_ -= w.amount;
      sim_.schedule_after(0.0, [h = w.handle] { h.resume(); });
    }
  }

  friend class ResourceGuard;

  Simulator& sim_;
  std::size_t capacity_;
  std::size_t available_;
  std::deque<Waiter> waiters_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// RAII guard for Resource units (release on scope exit).
class ResourceGuard {
 public:
  ResourceGuard(Resource& res, std::size_t amount)
      : res_(&res), alive_(res.alive_), amount_(amount) {}
  ResourceGuard(ResourceGuard&& o) noexcept
      : res_(o.res_), alive_(std::move(o.alive_)), amount_(o.amount_) {
    o.res_ = nullptr;
  }
  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;
  ResourceGuard& operator=(ResourceGuard&&) = delete;
  ~ResourceGuard() {
    if (res_ != nullptr && *alive_) res_->release(amount_);
  }

 private:
  Resource* res_;
  std::shared_ptr<bool> alive_;
  std::size_t amount_;
};

/// Serial FIFO bandwidth server: each transfer occupies the server for
/// size/bandwidth seconds; completion is signalled `latency` seconds after
/// the server releases (latency is pipelined, not occupying).
class BandwidthLink {
 public:
  BandwidthLink(Simulator& sim, double bytes_per_second, double latency = 0.0)
      : sim_(sim), bytes_per_s_(bytes_per_second), latency_(latency) {
    PRS_REQUIRE(bytes_per_second > 0.0, "bandwidth must be positive");
    PRS_REQUIRE(latency >= 0.0, "latency must be non-negative");
  }
  BandwidthLink(const BandwidthLink&) = delete;
  BandwidthLink& operator=(const BandwidthLink&) = delete;

  double bandwidth() const { return bytes_per_s_; }
  double latency() const { return latency_; }

  /// Total time the server has been occupied (for utilization metrics).
  double busy_time() const { return busy_accum_; }
  double bytes_transferred() const { return bytes_accum_; }

  /// Zeroes the utilization accumulators (between repeated runs); in-flight
  /// transfers keep their completion times.
  void reset_counters() {
    busy_accum_ = 0.0;
    bytes_accum_ = 0.0;
  }

  struct TransferAwaiter {
    Simulator& sim;
    Time complete_at;
    bool await_ready() const { return complete_at <= sim.now(); }
    void await_suspend(std::coroutine_handle<> h) {
      sim.schedule_at(complete_at, [h] { h.resume(); });
    }
    void await_resume() const {}
  };

  /// co_await link.transfer(bytes): completes when the transfer finishes.
  /// Zero-byte transfers still pay the latency.
  TransferAwaiter transfer(double bytes) {
    PRS_REQUIRE(bytes >= 0.0, "transfer size must be non-negative");
    const Time start = std::max(sim_.now(), busy_until_);
    const Time hold = bytes / bytes_per_s_;
    busy_until_ = start + hold;
    busy_accum_ += hold;
    bytes_accum_ += bytes;
    return TransferAwaiter{sim_, busy_until_ + latency_};
  }

  /// Time at which a transfer of `bytes` submitted now would complete,
  /// without enqueueing it (used by schedulers for lookahead).
  Time estimate_completion(double bytes) const {
    const Time start = std::max(sim_.now(), busy_until_);
    return start + bytes / bytes_per_s_ + latency_;
  }

 private:
  Simulator& sim_;
  double bytes_per_s_;
  double latency_;
  Time busy_until_ = 0.0;
  double busy_accum_ = 0.0;
  double bytes_accum_ = 0.0;
};

}  // namespace prs::sim
