// Deterministic executor for a TaskGraph over the virtual-clock simulator.
//
// start() dispatches every zero-indegree node in ascending id order; as
// nodes complete, newly-ready successors are dispatched (again ascending).
// Host nodes run inline at dispatch (zero virtual time); work nodes are
// spawned as simulator processes and complete when they resolve their
// Promise<Unit>. Drive the simulator (sim.run() or step loop) after
// start(); the graph is drained when done().
//
// Failure model: the first failure wins. fail() records the exception and
// cancels every node not yet dispatched — in-flight work nodes still
// drain (their virtual time is already committed), but nothing new
// starts. rethrow_if_failed() resurfaces the recorded exception. This is
// what gives the runner *immediate* first-failure propagation instead of
// the old full-stage barrier: the throwing node's completion event carries
// the error, and no later sibling is dispatched after it.
//
// Cancellation: cancel_pending() is also exposed directly for early exit
// (e.g. the stencil halo graph's convergence check).
//
// Observability: with a tracer attached, every node records a
// "graph.<kind>" span on track (node<rank>, "graph"), and the registry
// counters graph.nodes_run / graph.cancelled / graph.failures tick.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "simtime/simulator.hpp"

namespace prs::graph {

class GraphExecutor {
 public:
  GraphExecutor(sim::Simulator& sim, TaskGraph& graph);

  /// Validates the graph and dispatches the initial ready set. Call once.
  void start();

  /// True when every node has either completed or been cancelled.
  bool done() const { return finished_ == graph_.size(); }
  std::size_t completed() const { return completed_; }
  std::size_t cancelled() const { return cancelled_; }

  /// Marks every not-yet-dispatched node cancelled; in-flight work nodes
  /// still drain, but no new node starts.
  void cancel_pending();

  /// Records the first failure (later calls are ignored) and cancels all
  /// pending nodes. `where` names the failing node for diagnostics.
  void fail(std::exception_ptr error, const std::string& where);

  bool failed() const { return error_ != nullptr; }
  const std::string& failure_site() const { return error_site_; }
  /// Virtual time at which the first failure was recorded.
  double failure_time() const { return error_time_; }
  void rethrow_if_failed() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  enum State : std::uint8_t { kPending, kRunning, kDone, kCancelled };

  void dispatch(NodeId id);
  void complete(NodeId id);
  void finish_async(NodeId id, double t0);
  void record_span(const TaskNode& n, double t0, double t1);

  sim::Simulator& sim_;
  TaskGraph& graph_;
  std::vector<std::size_t> indegree_;
  std::vector<State> state_;
  std::size_t finished_ = 0;
  std::size_t completed_ = 0;
  std::size_t cancelled_ = 0;
  bool started_ = false;
  std::exception_ptr error_;
  std::string error_site_;
  double error_time_ = 0.0;
};

}  // namespace prs::graph
