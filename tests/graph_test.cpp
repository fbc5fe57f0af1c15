// Unit tests for the task-graph runtime (graph/task_graph.hpp,
// graph/executor.hpp): construction, cycle detection, deterministic DOT
// rendering, dispatch order, cancellation, and first-failure-wins.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "graph/executor.hpp"
#include "graph/task_graph.hpp"
#include "simtime/future.hpp"
#include "simtime/process.hpp"
#include "simtime/simulator.hpp"

namespace prs::graph {
namespace {

/// Work node that burns `d` virtual seconds, then logs its label.
sim::Process timed_node(sim::Simulator& sim, double d, std::string label,
                        std::vector<std::string>* log,
                        sim::Promise<sim::Unit> done) {
  auto w = sim::delay(sim, d);
  co_await w;
  log->push_back(std::move(label));
  done.set_value(sim::Unit{});
}

/// a -> {b, c} -> d diamond over host nodes, recording execution order.
TEST(TaskGraph, DiamondRunsInDependencyOrder) {
  sim::Simulator sim;
  std::vector<std::string> log;
  TaskGraph g("diamond");
  const NodeId a = g.add_host("a", "host", 0, [&] { log.push_back("a"); });
  const NodeId b = g.add_host("b", "host", 0, [&] { log.push_back("b"); });
  const NodeId c = g.add_host("c", "host", 0, [&] { log.push_back("c"); });
  const NodeId d = g.add_host("d", "host", 0, [&] { log.push_back("d"); });
  g.depend(b, a);
  g.depend(c, a);
  g.depend(d, b);
  g.depend(d, c);
  GraphExecutor exec(sim, g);
  exec.start();
  sim.run();
  EXPECT_TRUE(exec.done());
  EXPECT_EQ(exec.completed(), 4u);
  // Host nodes cascade inline in ascending id order: a, b, c, d.
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(TaskGraph, ReadyNodesDispatchAscending) {
  sim::Simulator sim;
  std::vector<std::string> log;
  TaskGraph g("asc");
  // Three roots with equal delay: completion (and hence logging) happens at
  // the same virtual time, in dispatch = id order.
  for (int i = 0; i < 3; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    g.add_work(name, "delay", 0,
               [&sim, &log, name](sim::Simulator&,
                                  sim::Promise<sim::Unit> done) {
                 return timed_node(sim, 1.0, name, &log, std::move(done));
               });
  }
  GraphExecutor exec(sim, g);
  exec.start();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"n0", "n1", "n2"}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(TaskGraph, CycleDetectionThrows) {
  TaskGraph g("cycle");
  const NodeId a = g.add_host("a", "host", 0, [] {});
  const NodeId b = g.add_host("b", "host", 0, [] {});
  g.depend(b, a);
  g.depend(a, b);
  EXPECT_THROW(g.validate(), Error);
}

TEST(TaskGraph, DependOnNoNodeIsNoop) {
  TaskGraph g("noop");
  const NodeId a = g.add_host("a", "host", 0, [] {});
  g.depend(a, kNoNode);
  EXPECT_EQ(g.edge_count(), 0u);
  // Duplicate edges coalesce.
  const NodeId b = g.add_host("b", "host", 0, [] {});
  g.depend(b, a);
  g.depend(b, a);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(TaskGraph, DotRenderingIsDeterministic) {
  auto build = [] {
    TaskGraph g("dot");
    const NodeId a = g.add_host("alpha", "host", 0, [] {});
    const NodeId b = g.add_work(
        "beta", "cpu", 1,
        [](sim::Simulator&, sim::Promise<sim::Unit> done) -> sim::Process {
          done.set_value(sim::Unit{});
          co_return;
        });
    g.depend(b, a);
    return g.to_dot();
  };
  const std::string d1 = build();
  const std::string d2 = build();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1.find("digraph"), std::string::npos);
  EXPECT_NE(d1.find("alpha"), std::string::npos);
  EXPECT_NE(d1.find("beta"), std::string::npos);
  EXPECT_NE(d1.find("cluster"), std::string::npos);  // per-rank grouping
}

TEST(GraphExecutor, CancelPendingSkipsUndispatchedNodes) {
  sim::Simulator sim;
  std::vector<std::string> log;
  TaskGraph g("cancel");
  GraphExecutor* exec_ptr = nullptr;
  const NodeId a = g.add_work(
      "a", "delay", 0,
      [&](sim::Simulator&, sim::Promise<sim::Unit> done) {
        return timed_node(sim, 1.0, "a", &log, std::move(done));
      });
  // Converge-check host node cancels everything after `a` completes.
  const NodeId check = g.add_host("check", "host", 0, [&] {
    exec_ptr->cancel_pending();
  });
  g.depend(check, a);
  const NodeId b = g.add_work(
      "b", "delay", 0,
      [&](sim::Simulator&, sim::Promise<sim::Unit> done) {
        return timed_node(sim, 1.0, "b", &log, std::move(done));
      });
  g.depend(b, check);
  GraphExecutor exec(sim, g);
  exec_ptr = &exec;
  exec.start();
  sim.run();
  EXPECT_TRUE(exec.done());
  EXPECT_EQ(exec.cancelled(), 1u);
  EXPECT_EQ(log, (std::vector<std::string>{"a"}));
  (void)b;
}

TEST(GraphExecutor, FirstFailureWinsAndCancelsPending) {
  sim::Simulator sim;
  TaskGraph g("fail");
  GraphExecutor* exec_ptr = nullptr;
  std::vector<std::string> log;
  // fast fails at t=1; slow would complete at t=2; dependent never runs.
  const NodeId fast = g.add_work(
      "fast", "delay", 0,
      [&](sim::Simulator& s, sim::Promise<sim::Unit> done) -> sim::Process {
        auto w = sim::delay(s, 1.0);
        co_await w;
        exec_ptr->fail(
            std::make_exception_ptr(std::runtime_error("boom")), "fast");
        done.set_value(sim::Unit{});
      });
  const NodeId slow = g.add_work(
      "slow", "delay", 0,
      [&](sim::Simulator&, sim::Promise<sim::Unit> done) {
        return timed_node(sim, 2.0, "slow", &log, std::move(done));
      });
  const NodeId after = g.add_host("after", "host", 0,
                                  [&] { log.push_back("after"); });
  g.depend(after, fast);
  g.depend(after, slow);
  GraphExecutor exec(sim, g);
  exec_ptr = &exec;
  exec.start();
  sim.run();
  EXPECT_TRUE(exec.failed());
  EXPECT_EQ(exec.failure_site(), "fast");
  EXPECT_DOUBLE_EQ(exec.failure_time(), 1.0);
  // In-flight `slow` drains; `after` was cancelled.
  EXPECT_EQ(log, (std::vector<std::string>{"slow"}));
  EXPECT_THROW(exec.rethrow_if_failed(), std::runtime_error);
  (void)fast;
  (void)slow;
}

TEST(GraphExecutor, EmptyGraphIsImmediatelyDone) {
  sim::Simulator sim;
  TaskGraph g("empty");
  GraphExecutor exec(sim, g);
  exec.start();
  EXPECT_TRUE(exec.done());
}

}  // namespace
}  // namespace prs::graph
