#include "simnet/fabric.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"
#include "simtime/process.hpp"

namespace prs::simnet {
namespace {

// Collectives that run in phases (allreduce = reduce + broadcast) offset the
// user's tag per phase; the caller owns tags below this stride.
constexpr int kPhaseTagStride = 1 << 24;

// Ack tags count down from here; user tags are non-negative, so the two
// spaces can never collide.
constexpr int kAckTagBase = -1;

// The ack/retransmit protocol of a lossy fabric: up to kMaxRetransmits
// (then the peer is presumed dead); the first ack deadline is
// kAckTimeoutFactor x the estimated RTT, at least kMinAckTimeout, doubling
// per retry; each ack costs kAckBytes on the wire.
constexpr int kMaxRetransmits = 8;
constexpr double kAckTimeoutFactor = 8.0;
constexpr double kMinAckTimeout = 1e-4;
constexpr double kAckBytes = 64.0;

}  // namespace

// -- Fabric -------------------------------------------------------------------

Fabric::Fabric(sim::Simulator& sim, int nodes, FabricSpec spec)
    : sim_(sim), spec_(spec) {
  PRS_REQUIRE(nodes >= 1, "fabric needs at least one node");
  PRS_REQUIRE(spec.link_bandwidth > 0.0, "link bandwidth must be positive");
  PRS_REQUIRE(spec.latency >= 0.0, "latency must be non-negative");
  for (int r = 0; r < nodes; ++r) {
    // Latency is charged once, on the egress side.
    egress_.push_back(std::make_unique<sim::BandwidthLink>(
        sim, spec.link_bandwidth, spec.latency));
    ingress_.push_back(
        std::make_unique<sim::BandwidthLink>(sim, spec.link_bandwidth, 0.0));
    comms_.push_back(std::unique_ptr<Communicator>(new Communicator(*this, r)));
  }
}

Fabric::~Fabric() = default;

Communicator& Fabric::comm(int rank) {
  PRS_REQUIRE(rank >= 0 && rank < size(), "rank out of range");
  return *comms_[static_cast<std::size_t>(rank)];
}

double Fabric::bytes_sent() const {
  double total = 0.0;
  for (const auto& link : egress_) total += link->bytes_transferred();
  return total;
}

// -- Communicator ---------------------------------------------------------------

sim::Channel<Message>& Communicator::inbox(int src, int tag) {
  auto key = std::make_pair(src, tag);
  auto it = inboxes_.find(key);
  if (it == inboxes_.end()) {
    it = inboxes_
             .emplace(key, std::make_unique<sim::Channel<Message>>(
                               fabric_.simulator()))
             .first;
  }
  return *it->second;
}

sim::Process Communicator::deliver(int dst, int tag, Message msg) {
  auto& egress = *fabric_.egress_[static_cast<std::size_t>(rank_)];
  auto& ingress = *fabric_.ingress_[static_cast<std::size_t>(dst)];
  const double bytes = msg.bytes;
  const double t0 = fabric_.simulator().now();
  // Raw deliveries (fault-free traffic, protocol acks) can still be dropped
  // or delayed by an attached hook; one null check when detached.
  NetFault fault;
  if (fabric_.fault_hook_ != nullptr) {
    fault = fabric_.fault_hook_->on_message(rank_, dst, tag, bytes);
  }
  co_await egress.transfer(bytes);
  if (fault.drop) co_return;
  if (fault.extra_delay > 0.0) {
    auto lag = sim::delay(fabric_.simulator(), fault.extra_delay);
    co_await lag;
  }
  co_await ingress.transfer(bytes);
  obs::TraceRecorder* tr = fabric_.simulator().tracer();
  if (tr != nullptr && tr->enabled()) {
    // Span covers egress queueing + both serializations + fabric latency —
    // the sender-side view of the message, on the sender's NIC track.
    tr->complete(tr->track("node" + std::to_string(rank_), "nic"),
                 "send.n" + std::to_string(dst), "net", t0,
                 fabric_.simulator().now(),
                 {obs::arg("bytes", bytes), obs::arg("dst", dst),
                  obs::arg("tag", tag)});
    tr->metrics().counter("net.bytes").add(bytes);
    tr->metrics()
        .histogram("net.msg_bytes", obs::geometric_buckets(64.0, 4.0, 16))
        .observe(bytes);
  }
  Communicator& peer = fabric_.comm(dst);
  if (tag < 0) {
    // Protocol ack: if the sender already gave up (its ack inbox was
    // reclaimed), discard instead of resurrecting the inbox entry.
    auto it = peer.inboxes_.find(std::make_pair(rank_, tag));
    if (it == peer.inboxes_.end()) co_return;
    it->second->send(std::move(msg));
    co_return;
  }
  peer.inbox(rank_, tag).send(std::move(msg));
}

void Communicator::send(int dst, int tag, Message msg) {
  PRS_REQUIRE(dst >= 0 && dst < size(), "destination rank out of range");
  PRS_REQUIRE(msg.bytes >= 0.0, "message size must be non-negative");
  if (dst == rank_) {
    // Loopback: no wire cost, delivered as an event at the current time.
    // Loopback never touches the wire, so fault hooks do not apply.
    auto& box = inbox(rank_, tag);
    fabric_.simulator().schedule_after(
        0.0, [&box, m = std::make_shared<Message>(std::move(msg))]() mutable {
          box.send(std::move(*m));
        });
    return;
  }
  if (fabric_.fault_hook_ != nullptr) {
    // Lossy fabric: sequenced ack/retransmit protocol.
    const std::uint64_t seq = rel_next_seq_[std::make_pair(dst, tag)]++;
    fabric_.simulator().spawn(reliable_send(dst, tag, std::move(msg), seq));
    return;
  }
  fabric_.simulator().spawn(deliver(dst, tag, std::move(msg)));
}

sim::Process Communicator::ack_pump(int src, int ack_tag,
                                    sim::Promise<sim::Unit> acked) {
  auto v = co_await inbox(src, ack_tag).recv();
  // nullopt: the ack inbox was reclaimed (sender gave up) — nothing to do.
  if (v.has_value()) acked.set_value(sim::Unit{});
}

sim::Process Communicator::reliable_send(int dst, int tag, Message msg,
                                         std::uint64_t seq) {
  sim::Simulator& sim = fabric_.simulator();
  auto& egress = *fabric_.egress_[static_cast<std::size_t>(rank_)];
  auto& ingress = *fabric_.ingress_[static_cast<std::size_t>(dst)];
  const double bytes = msg.bytes;
  const int ack_tag = kAckTagBase - next_ack_id_++;

  sim::Promise<sim::Unit> acked(sim);
  sim::Future<sim::Unit> ack_future = acked.get_future();
  {
    sim::Process pump = ack_pump(dst, ack_tag, acked);
    sim.spawn(std::move(pump));
  }

  const FabricSpec& fs = fabric_.spec_;
  const double rtt_estimate =
      2.0 * fs.latency + (bytes + kAckBytes) / fs.link_bandwidth;
  double deadline = std::max(kMinAckTimeout, kAckTimeoutFactor * rtt_estimate);

  for (int attempt = 0;; ++attempt) {
    NetFault fault;
    if (fabric_.fault_hook_ != nullptr) {
      fault = fabric_.fault_hook_->on_message(rank_, dst, tag, bytes);
    }
    const double t0 = sim.now();
    co_await egress.transfer(bytes);
    if (!fault.drop) {
      if (fault.extra_delay > 0.0) {
        auto lag = sim::delay(sim, fault.extra_delay);
        co_await lag;
      }
      co_await ingress.transfer(bytes);
      obs::TraceRecorder* tr = sim.tracer();
      if (tr != nullptr && tr->enabled()) {
        tr->complete(tr->track("node" + std::to_string(rank_), "nic"),
                     "send.n" + std::to_string(dst), "net", t0, sim.now(),
                     {obs::arg("bytes", bytes), obs::arg("dst", dst),
                      obs::arg("tag", tag), obs::arg("attempt", attempt)});
        tr->metrics().counter("net.bytes").add(bytes);
        tr->metrics()
            .histogram("net.msg_bytes", obs::geometric_buckets(64.0, 4.0, 16))
            .observe(bytes);
      }
      Communicator& peer = fabric_.comm(dst);
      peer.reliable_accept(rank_, tag, seq, ack_tag, msg);
      if (fault.duplicate) peer.reliable_accept(rank_, tag, seq, ack_tag, msg);
    }
    auto timed = sim::with_timeout(sim, ack_future, deadline);
    const bool got_ack = co_await timed;
    if (got_ack || attempt >= kMaxRetransmits) {
      // Success — or the peer is presumed dead and job-level recovery takes
      // over. Reclaim the ack inbox; a pending pump wakes with nullopt and
      // exits, a late ack finds no inbox and is discarded.
      inboxes_.erase(std::make_pair(dst, ack_tag));
      co_return;
    }
    deadline *= 2.0;
    ++fabric_.retransmits_;
    obs::TraceRecorder* tr = sim.tracer();
    if (tr != nullptr && tr->enabled()) {
      tr->metrics().counter("net.retransmits").increment();
    }
  }
}

void Communicator::reliable_accept(int src, int tag, std::uint64_t seq,
                                   int ack_tag, Message msg) {
  // Ack every copy, even duplicates: the previous ack may have been lost.
  Message ack;
  ack.bytes = kAckBytes;
  send_unreliable(src, ack_tag, std::move(ack));
  RelInbound& in = rel_in_[std::make_pair(src, tag)];
  if (seq < in.next_seq || in.held.count(seq) != 0) return;  // duplicate
  in.held.emplace(seq, std::move(msg));
  // Release in sequence order so recv() keeps per-(src,tag) FIFO semantics.
  for (auto it = in.held.find(in.next_seq); it != in.held.end();
       it = in.held.find(in.next_seq)) {
    inbox(src, tag).send(std::move(it->second));
    in.held.erase(it);
    ++in.next_seq;
  }
}

void Communicator::send_unreliable(int dst, int tag, Message msg) {
  fabric_.simulator().spawn(deliver(dst, tag, std::move(msg)));
}

sim::Task<Message> Communicator::recv(int src, int tag) {
  PRS_REQUIRE(src >= 0 && src < size(), "source rank out of range");
  auto v = co_await inbox(src, tag).recv();
  PRS_CHECK(v.has_value(), "inbox closed while receiving");
  co_return std::move(*v);
}

sim::Task<Message> Communicator::broadcast(int root, Message msg, int tag) {
  PRS_REQUIRE(root >= 0 && root < size(), "root rank out of range");
  const int p = size();
  const int vrank = (rank_ - root + p) % p;

  // Receive from the parent (MPICH binomial tree), unless we are the root.
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      const int parent = ((vrank - mask) + root) % p;
      msg = co_await recv(parent, tag);
      break;
    }
    mask <<= 1;
  }
  // Forward to children.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int child = ((vrank + mask) + root) % p;
      send(child, tag, msg);  // copy: fan-out keeps the payload
    }
    mask >>= 1;
  }
  co_return msg;
}

sim::Task<Message> Communicator::reduce(int root, Message contribution,
                                        Combiner combine, int tag) {
  PRS_REQUIRE(root >= 0 && root < size(), "root rank out of range");
  PRS_REQUIRE(combine != nullptr, "reduce needs a combiner");
  const int p = size();
  const int vrank = (rank_ - root + p) % p;

  Message acc = std::move(contribution);
  for (int mask = 1; mask < p; mask <<= 1) {
    if (vrank & mask) {
      const int parent = ((vrank - mask) + root) % p;
      send(parent, tag, std::move(acc));
      acc = Message{};  // moved out; non-root result is unspecified anyway
      break;
    }
    const int child_v = vrank + mask;
    if (child_v < p) {
      const int child = (child_v + root) % p;
      Message m = co_await recv(child, tag);
      acc = combine(std::move(acc), std::move(m));
    }
  }
  co_return acc;
}

sim::Task<Message> Communicator::allreduce(Message contribution,
                                           Combiner combine, int tag) {
  Message reduced =
      co_await reduce(0, std::move(contribution), std::move(combine), tag);
  Message result =
      co_await broadcast(0, std::move(reduced), tag + kPhaseTagStride);
  co_return result;
}

sim::Task<std::vector<Message>> Communicator::gather(int root,
                                                     Message contribution,
                                                     int tag) {
  PRS_REQUIRE(root >= 0 && root < size(), "root rank out of range");
  const int p = size();
  std::vector<Message> out;
  if (rank_ != root) {
    send(root, tag, std::move(contribution));
    co_return out;
  }
  out.resize(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(root)] = std::move(contribution);
  for (int src = 0; src < p; ++src) {
    if (src == root) continue;
    out[static_cast<std::size_t>(src)] = co_await recv(src, tag);
  }
  co_return out;
}

sim::Task<std::vector<Message>> Communicator::all_to_all(
    std::vector<Message> outbound, int tag) {
  const int p = size();
  PRS_REQUIRE(static_cast<int>(outbound.size()) == p,
              "all_to_all needs one outbound message per rank");
  std::vector<Message> in(static_cast<std::size_t>(p));
  for (int dst = 0; dst < p; ++dst) {
    if (dst == rank_) {
      in[static_cast<std::size_t>(dst)] =
          std::move(outbound[static_cast<std::size_t>(dst)]);
    } else {
      send(dst, tag, std::move(outbound[static_cast<std::size_t>(dst)]));
    }
  }
  for (int src = 0; src < p; ++src) {
    if (src == rank_) continue;
    in[static_cast<std::size_t>(src)] = co_await recv(src, tag);
  }
  co_return in;
}

sim::Task<sim::Unit> Communicator::barrier(int tag) {
  // Named locals: see the GCC-12 temporaries rule in simtime/process.hpp.
  Combiner noop = [](Message a, Message) { return a; };
  Message empty;
  (void)co_await allreduce(std::move(empty), std::move(noop), tag);
  co_return sim::Unit{};
}

}  // namespace prs::simnet
