// Simulated cluster interconnect: per-node full-duplex links into an ideal
// switch, MPI-like point-to-point messaging and tree-based collectives.
//
// Timing model: a message from src to dst serializes through src's egress
// link, pays the fabric latency once, then serializes through dst's ingress
// link. Under an all-to-all shuffle every link saturates independently,
// which matches the paper's cluster (nodes on a common switch) well enough
// to reproduce the weak-scaling shape of Figure 6 including the global-
// reduction overhead visible at 8 nodes.
//
// Collectives use binomial trees (MPICH-style), so their critical path
// grows as ceil(log2 P) link hops — the mechanism behind the C-means
// per-node throughput drop the paper reports.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "simnet/fault_hook.hpp"
#include "simnet/message.hpp"
#include "simtime/channel.hpp"
#include "simtime/future.hpp"
#include "simtime/resource.hpp"
#include "simtime/simulator.hpp"
#include "simtime/task.hpp"

namespace prs::simnet {

struct FabricSpec {
  /// Per-direction bandwidth of each node's link (bytes/s).
  double link_bandwidth = 1e9;
  /// One-way message latency (s).
  double latency = 50e-6;
};

class Communicator;

/// The interconnect shared by all ranks of one simulated cluster.
class Fabric {
 public:
  Fabric(sim::Simulator& sim, int nodes, FabricSpec spec);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int size() const { return static_cast<int>(comms_.size()); }
  sim::Simulator& simulator() { return sim_; }
  const FabricSpec& spec() const { return spec_; }

  /// The endpoint owned by `rank`.
  Communicator& comm(int rank);

  /// Total bytes moved through the fabric (all links, egress side).
  double bytes_sent() const;

  /// Attaches (or detaches, with nullptr) the fault-injection hook. While a
  /// hook is attached, point-to-point sends switch to a sequenced
  /// ack/retransmit protocol (drops are retransmitted, duplicates deduped,
  /// per-(src,tag) FIFO order preserved); loopback sends are unaffected.
  /// Detach only when the fabric is quiescent (simulator drained).
  void set_fault_hook(NetFaultHook* hook) { fault_hook_ = hook; }
  NetFaultHook* fault_hook() const { return fault_hook_; }

  /// Retransmissions performed since construction (monotonic).
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  friend class Communicator;

  sim::Simulator& sim_;
  FabricSpec spec_;
  std::vector<std::unique_ptr<sim::BandwidthLink>> egress_;
  std::vector<std::unique_ptr<sim::BandwidthLink>> ingress_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  NetFaultHook* fault_hook_ = nullptr;
  std::uint64_t retransmits_ = 0;
};

/// Combines two reduction contributions into one (payload + wire size).
using Combiner = std::function<Message(Message, Message)>;

/// Per-rank endpoint with MPI-flavoured operations. All operations must be
/// called from simulator processes of that rank.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return fabric_.size(); }

  /// Asynchronous send (buffered, fire-and-forget like MPI_Isend whose
  /// completion the sender does not track).
  void send(int dst, int tag, Message msg);

  /// Receives the next message with this (src, tag); FIFO per channel.
  sim::Task<Message> recv(int src, int tag);

  // -- collectives ------------------------------------------------------
  // `tag` must be unique per collective invocation across concurrently
  // running collectives on this communicator (the caller owns the tag
  // space, as in MPI). Every rank must call the same collective with the
  // same tag and root.

  /// Binomial-tree broadcast; returns the root's message on every rank.
  sim::Task<Message> broadcast(int root, Message msg, int tag);

  /// Binomial-tree reduce; the result is meaningful on `root` only
  /// (other ranks get their partial accumulation back).
  sim::Task<Message> reduce(int root, Message contribution, Combiner combine,
                            int tag);

  /// reduce to rank 0 + broadcast: every rank gets the combined value.
  sim::Task<Message> allreduce(Message contribution, Combiner combine,
                               int tag);

  /// Root receives all contributions ordered by rank.
  sim::Task<std::vector<Message>> gather(int root, Message contribution,
                                         int tag);

  /// Personalized all-to-all: `outbound[r]` goes to rank r; returns the
  /// messages received, indexed by source rank. outbound.size() == size().
  sim::Task<std::vector<Message>> all_to_all(std::vector<Message> outbound,
                                             int tag);

  /// All ranks wait until all ranks arrive.
  sim::Task<sim::Unit> barrier(int tag);

 private:
  friend class Fabric;
  Communicator(Fabric& fabric, int rank) : fabric_(fabric), rank_(rank) {}

  sim::Channel<Message>& inbox(int src, int tag);
  sim::Process deliver(int dst, int tag, Message msg);

  // -- reliable path (active while a fault hook is attached) -------------
  // Each message gets a per-(dst,tag) sequence number and a unique ack tag
  // (negative, so it can never collide with user tags). The sender
  // retransmits with exponential backoff until the ack arrives or it gives
  // up; the receiver acks every copy, dedups, and releases messages to the
  // inbox strictly in sequence order so recv() keeps FIFO semantics.
  sim::Process reliable_send(int dst, int tag, Message msg,
                             std::uint64_t seq);
  sim::Process ack_pump(int src, int ack_tag, sim::Promise<sim::Unit> acked);
  void reliable_accept(int src, int tag, std::uint64_t seq, int ack_tag,
                       Message msg);
  void send_unreliable(int dst, int tag, Message msg);

  struct RelInbound {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, Message> held;  // out-of-order buffer
  };

  Fabric& fabric_;
  int rank_;
  std::map<std::pair<int, int>, std::unique_ptr<sim::Channel<Message>>>
      inboxes_;
  std::map<std::pair<int, int>, std::uint64_t> rel_next_seq_;  // (dst, tag)
  std::map<std::pair<int, int>, RelInbound> rel_in_;           // (src, tag)
  int next_ack_id_ = 0;
};

}  // namespace prs::simnet
