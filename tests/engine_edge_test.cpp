// Additional edge-case coverage for the simulation engine and network
// layer: Task<T> composition corners, when_all with pre-resolved inputs,
// channel fairness, bandwidth estimation under queueing, concurrent
// collectives on disjoint tags, and congestion timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job_runner.hpp"
#include "exec/thread_pool.hpp"
#include "simnet/fabric.hpp"
#include "simtime/channel.hpp"
#include "simtime/future.hpp"
#include "simtime/process.hpp"
#include "simtime/resource.hpp"
#include "simtime/task.hpp"

namespace prs::sim {
namespace {

// -- Task<T> corners ------------------------------------------------------------

Task<int> immediate(int v) { co_return v; }

Process drive_immediate(Simulator& sim, std::vector<int>& out) {
  // A task that never suspends still goes through symmetric transfer.
  const int a = co_await immediate(7);
  const int b = co_await immediate(a + 1);
  out.push_back(b);
  (void)sim;
}

TEST(TaskEdge, NonSuspendingTasksComplete) {
  Simulator sim;
  std::vector<int> out;
  sim.spawn(drive_immediate(sim, out));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{8}));
}

Task<std::vector<int>> collect(Simulator& sim, int n) {
  std::vector<int> v;
  for (int i = 0; i < n; ++i) {
    co_await delay(sim, 0.1);
    v.push_back(i);
  }
  co_return v;
}

Process drive_collect(Simulator& sim, std::size_t& size, double& at) {
  auto v = co_await collect(sim, 5);
  size = v.size();
  at = sim.now();
}

TEST(TaskEdge, MoveOnlyishResultsTransferCorrectly) {
  Simulator sim;
  std::size_t size = 0;
  double at = 0;
  sim.spawn(drive_collect(sim, size, at));
  sim.run();
  EXPECT_EQ(size, 5u);
  EXPECT_DOUBLE_EQ(at, 0.5);
}

TEST(TaskEdge, UnawaitedTaskIsDestroyedWithoutRunning) {
  Simulator sim;
  bool ran = false;
  {
    auto t = [](Simulator& s, bool& flag) -> Task<int> {
      flag = true;
      co_await delay(s, 1.0);
      co_return 1;
    }(sim, ran);
    // destroyed unawaited: lazy start means the body never runs
  }
  sim.run();
  EXPECT_FALSE(ran);
}

// -- when_all corners --------------------------------------------------------------

TEST(WhenAllEdge, MixOfResolvedAndPending) {
  Simulator sim;
  Promise<int> a(sim), b(sim);
  a.set_value(1);  // resolved before when_all
  std::vector<Future<int>> fs{a.get_future(), b.get_future()};
  auto all = when_all(sim, fs);
  EXPECT_FALSE(all.ready());
  sim.schedule_at(2.0, [&] { b.set_value(2); });
  sim.run();
  EXPECT_TRUE(all.ready());
}

TEST(WhenAllEdge, DuplicateFuturesCountSeparately) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<Future<int>> fs{p.get_future(), p.get_future(),
                              p.get_future()};
  auto all = when_all(sim, fs);
  p.set_value(5);
  sim.run();
  EXPECT_TRUE(all.ready());
}

// -- channel fairness ----------------------------------------------------------------

Process greedy_consumer(Simulator&, Channel<int>& ch, std::vector<int>& got) {
  for (;;) {
    auto v = co_await ch.recv();
    if (!v) break;
    got.push_back(*v);
  }
}

TEST(ChannelEdge, TwoConsumersAlternateOnHandoff) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> a, b;
  sim.spawn(greedy_consumer(sim, ch, a));
  sim.spawn(greedy_consumer(sim, ch, b));
  sim.spawn([](Simulator& s, Channel<int>& c) -> Process {
    for (int i = 0; i < 10; ++i) {
      co_await delay(s, 0.1);  // one at a time: both consumers wait
      c.send(i);
    }
    c.close();
  }(sim, ch));
  sim.run();
  // Direct handoff to the longest-waiting consumer: strict alternation.
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(a, (std::vector<int>{0, 2, 4, 6, 8}));
  EXPECT_EQ(b, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(ChannelEdge, CloseIsIdempotentAndDrainsBuffered) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.send(1);
  ch.close();
  ch.close();  // idempotent
  std::vector<int> got;
  sim.spawn(greedy_consumer(sim, ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1}));
}

// -- bandwidth estimation under queueing ----------------------------------------------

Process queue_transfers(Simulator&, BandwidthLink& link, double bytes,
                        int count, Promise<Unit> done) {
  for (int i = 0; i < count; ++i) {
    auto t = link.transfer(bytes);
    if (i + 1 == count) co_await t;
  }
  done.set_value(Unit{});
}

TEST(BandwidthEdge, EstimateAccountsForQueuedWork) {
  Simulator sim;
  BandwidthLink link(sim, 100.0, 0.0);
  // Enqueue 300 bytes of work (3 s of service) without awaiting.
  (void)link.transfer(100.0);
  (void)link.transfer(200.0);
  // A new 100-byte transfer completes only after the queue drains.
  EXPECT_DOUBLE_EQ(link.estimate_completion(100.0), 4.0);
}

TEST(BandwidthEdge, UtilizationAccumulatesAcrossTransfers) {
  Simulator sim;
  BandwidthLink link(sim, 100.0, 0.0);
  Promise<Unit> done(sim);
  sim.spawn(queue_transfers(sim, link, 50.0, 4, done));
  sim.run();
  EXPECT_DOUBLE_EQ(link.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(link.bytes_transferred(), 200.0);
}

}  // namespace
}  // namespace prs::sim

namespace prs::simnet {
namespace {

using sim::Simulator;

// -- concurrent collectives on disjoint tags -------------------------------------------

TEST(CollectiveEdge, DisjointTagCollectivesDoNotInterfere) {
  const int nodes = 4;
  Simulator simu;
  Fabric fab(simu, nodes, FabricSpec{1000.0, 0.0});
  std::vector<int> sums(nodes, 0), prods(nodes, 1);
  for (int r = 0; r < nodes; ++r) {
    simu.spawn([](Simulator&, Communicator& c, int rank, std::vector<int>& s,
                  std::vector<int>& p) -> sim::Process {
      // Two allreduces in flight from the same rank on different tags.
      Combiner add = [](Message a, Message b) {
        return Message{8.0, a.payload_as<int>() + b.payload_as<int>()};
      };
      Combiner mul = [](Message a, Message b) {
        return Message{8.0, a.payload_as<int>() * b.payload_as<int>()};
      };
      Message m1{8.0, rank + 1};
      Message m2{8.0, rank + 1};
      auto t1 = c.allreduce(std::move(m1), std::move(add), 10);
      Message r1 = co_await t1;
      auto t2 = c.allreduce(std::move(m2), std::move(mul), 20);
      Message r2 = co_await t2;
      s[static_cast<std::size_t>(rank)] = r1.payload_as<int>();
      p[static_cast<std::size_t>(rank)] = r2.payload_as<int>();
    }(simu, fab.comm(r), r, sums, prods));
  }
  simu.run();
  for (int r = 0; r < nodes; ++r) {
    EXPECT_EQ(sums[static_cast<std::size_t>(r)], 10);   // 1+2+3+4
    EXPECT_EQ(prods[static_cast<std::size_t>(r)], 24);  // 1*2*3*4
  }
}

TEST(CollectiveEdge, AllToAllCostScalesWithMessageSize) {
  auto makespan = [](double bytes) {
    const int nodes = 4;
    Simulator simu;
    Fabric fab(simu, nodes, FabricSpec{1000.0, 0.0});
    for (int r = 0; r < nodes; ++r) {
      simu.spawn([](Simulator&, Communicator& c,
                    double sz) -> sim::Process {
        std::vector<Message> out(static_cast<std::size_t>(c.size()));
        for (auto& m : out) m.bytes = sz;
        (void)co_await c.all_to_all(std::move(out), 5);
      }(simu, fab.comm(r), bytes));
    }
    simu.run();
    return simu.now();
  };
  const double t1 = makespan(100.0);
  const double t4 = makespan(400.0);
  EXPECT_NEAR(t4 / t1, 4.0, 0.2);  // bandwidth-bound regime
}

TEST(CollectiveEdge, SingleNodeCollectivesAreInstant) {
  Simulator simu;
  Fabric fab(simu, 1, FabricSpec{1000.0, 1.0});
  bool done = false;
  simu.spawn([](Simulator&, Communicator& c, bool& flag) -> sim::Process {
    Combiner keep = [](Message a, Message) { return a; };
    Message mine{1e9, 42};
    Message r = co_await c.allreduce(std::move(mine), std::move(keep), 3);
    EXPECT_EQ(r.payload_as<int>(), 42);
    std::vector<Message> out(1);
    out[0] = Message{1e9, 1};
    (void)co_await c.all_to_all(std::move(out), 4);
    flag = true;
  }(simu, fab.comm(0), done));
  simu.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(simu.now(), 0.0);  // loopback costs nothing
}

}  // namespace
}  // namespace prs::simnet

// -- Task-graph engine edges ----------------------------------------------------
//
// Regression: a functional map closure throwing mid-stage must surface the
// FIRST failure immediately — at the throwing block's completion time, with
// the graph node named in the error — instead of an anonymous error after
// the full stage barrier (the old behaviour let every sibling block finish
// and lost the failing task's identity).

namespace prs::core {
namespace {

MapReduceSpec<int, int> counting_spec(bool poisoned,
                                      std::size_t poison_item = 0) {
  MapReduceSpec<int, int> spec;
  spec.name = "edge-count";
  spec.cpu_map = [poisoned, poison_item](const InputSlice& s,
                                         Emitter<int, int>& e) {
    for (std::size_t i = s.begin; i < s.end; ++i) {
      if (poisoned && i == poison_item) {
        throw std::runtime_error("poison item " + std::to_string(i));
      }
      e.emit(static_cast<int>(i % 7), 1);
    }
  };
  spec.combine = [](const int& a, const int& b) { return a + b; };
  spec.cpu_flops_per_item = 1000.0;
  spec.gpu_flops_per_item = 1000.0;
  spec.item_bytes = 8.0;
  return spec;
}

TEST(GraphEngineEdge, MapClosureThrowPropagatesFirstFailureImmediately) {
  // Item 0 lives in rank 0's first CPU map block (static) or its first
  // dynamic round (dynamic): the failure names that graph node.
  core::DynamicBlockPolicy dynamic;
  for (const bool is_dynamic : {false, true}) {
    SCOPED_TRACE(is_dynamic ? "dynamic" : "static");
    JobConfig cfg;
    if (is_dynamic) cfg.policy = &dynamic;
    // Fault-free reference run: total virtual time of the whole job.
    double t_clean = 0.0;
    {
      sim::Simulator simu;
      Cluster cluster(simu, 2, NodeConfig{});
      auto res = run_job(cluster, counting_spec(false), cfg, 4096);
      EXPECT_EQ(res.output.size(), 7u);
      t_clean = res.stats.elapsed;
      ASSERT_GT(t_clean, 0.0);
    }

    sim::Simulator simu;
    Cluster cluster(simu, 2, NodeConfig{});
    try {
      run_job(cluster, counting_spec(true), cfg, 4096);
      FAIL() << "expected the poisoned map closure to surface an Error";
    } catch (const Error& e) {
      const std::string what = e.what();
      // The graph runner names the failing node...
      EXPECT_NE(what.find("task graph node '" +
                          std::string(is_dynamic ? "n0:p0:map:dynamic"
                                                 : "n0:p0:map:cpu0") +
                          "' failed"),
                std::string::npos)
          << what;
      // ...and carries the original cause.
      EXPECT_NE(what.find("poison item 0"), std::string::npos) << what;
    }
    // Immediate propagation: the error surfaced at the failing block's
    // completion time, well before the fault-free job's total time (which
    // still owes shuffle/reduce/gather after the map barrier).
    EXPECT_LT(simu.now(), t_clean);
    EXPECT_GT(simu.now(), 0.0);
  }
}

TEST(GraphEngineEdge, GraphMatchesStagesOutput) {
  sim::Simulator simu;
  Cluster cluster(simu, 3, NodeConfig{});
  const auto graph = run_job(cluster, counting_spec(false), JobConfig{}, 3000);
  std::map<int, int> want;
  for (int i = 0; i < 3000; ++i) ++want[i % 7];
  EXPECT_EQ(graph.output, want);
  // The stage runner's virtual time for this job, captured before it was
  // deleted.
  EXPECT_EQ(graph.stats.elapsed, 1.2016682316598213);
}

TEST(GraphEngineEdge, MapClosureThrowSurfacesAtItsOwnBlockCompletion) {
  // The runner runs a job's pending map payloads together at the first
  // completion that needs one, but a payload's exception must still
  // surface at its own block's completion — not at the completion that
  // happened to run it. One node with one CPU core and no GPU completes
  // the blocks one after another, so a later block fails later.
  NodeConfig node;
  node.reserved_cpu_cores = 1;
  JobConfig cfg;
  cfg.use_gpu = false;
  constexpr std::size_t kItems = 4096;

  // Fault-free reference: the job's total time and its blocks.
  double t_clean = 0.0;
  std::vector<std::size_t> begins;
  {
    sim::Simulator simu;
    Cluster cluster(simu, 1, node);
    auto spec = counting_spec(false);
    spec.cpu_map = [&begins, inner = spec.cpu_map](const InputSlice& s,
                                                   Emitter<int, int>& e) {
      begins.push_back(s.begin);  // one host thread: no lock needed
      inner(s, e);
    };
    exec::ThreadPool::instance().configure(1);
    t_clean = run_job(cluster, spec, cfg, kItems).stats.elapsed;
    exec::ThreadPool::instance().configure(0);
  }
  std::sort(begins.begin(), begins.end());
  ASSERT_GE(begins.size(), 3u);

  std::vector<double> failed_at;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t poisoned = begins[k];
    auto spec = counting_spec(false);
    spec.cpu_map = [poisoned, inner = spec.cpu_map](const InputSlice& s,
                                                    Emitter<int, int>& e) {
      if (s.begin == poisoned) throw std::runtime_error("poisoned block");
      inner(s, e);
    };
    sim::Simulator simu;
    Cluster cluster(simu, 1, node);
    try {
      run_job(cluster, spec, cfg, kItems);
      FAIL() << "expected block " << k << " to surface its error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned block"),
                std::string::npos);
    }
    failed_at.push_back(simu.now());
  }
  // Block 0's completion ran blocks 1 and 2 too; their errors still wait
  // for their own completions, before the job's map barrier.
  EXPECT_LT(failed_at[0], failed_at[1]);
  EXPECT_LT(failed_at[1], failed_at[2]);
  EXPECT_LT(failed_at[2], t_clean);
}

/// counting_spec with a cpu_map_run that emits every part's pairs and
/// then throws, counting its calls in `calls`.
MapReduceSpec<int, int> throwing_run_spec(bool poisoned,
                                          std::size_t poison_item,
                                          std::shared_ptr<int> calls) {
  auto spec = counting_spec(poisoned, poison_item);
  spec.cpu_map_run = [calls](const InputSlice&,
                             std::span<const MapPart<int, int>> parts) {
    ++*calls;
    for (const auto& p : parts) {
      for (std::size_t i = p.slice.begin; i < p.slice.end; ++i) {
        p.emitter->emit(static_cast<int>(i % 7), 1);
      }
    }
    throw std::runtime_error("fused run failed");
  };
  return spec;
}

TEST(GraphEngineEdge, ThrowingMapRunFailsAsItsPoisonedBlockDoes) {
  // The hook throws, so its payloads run one by one; the block that holds
  // the poisoned item must fail the job as it does without the hook: same
  // graph node, same cause, same virtual time.
  constexpr std::size_t kItems = 4096;
  constexpr std::size_t kPoison = 1500;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::ThreadPool::instance().configure(threads);
    const auto fail = [&](const MapReduceSpec<int, int>& spec) {
      sim::Simulator simu;
      Cluster cluster(simu, 2, NodeConfig{});
      std::string what;
      try {
        run_job(cluster, spec, JobConfig{}, kItems);
        ADD_FAILURE() << "expected the poisoned block to fail the job";
      } catch (const Error& e) {
        what = e.what();
      }
      return std::pair(what, simu.now());
    };
    const auto plain = fail(counting_spec(true, kPoison));
    auto calls = std::make_shared<int>(0);
    const auto fused = fail(throwing_run_spec(true, kPoison, calls));
    EXPECT_GT(*calls, 0);
    EXPECT_NE(plain.first.find("task graph node 'n"), std::string::npos)
        << plain.first;
    EXPECT_NE(plain.first.find("' failed: poison item 1500"),
              std::string::npos)
        << plain.first;
    EXPECT_EQ(fused.first, plain.first);
    EXPECT_EQ(fused.second, plain.second);
  }
  exec::ThreadPool::instance().configure(0);
}

TEST(GraphEngineEdge, ThrowingMapRunReRunsItsPayloadsFromEmptyEmitters) {
  // The hook emits every part's pairs, then throws. Its payloads re-run
  // through cpu_map; had their emitters kept the hook's pairs, every count
  // would double.
  constexpr std::size_t kItems = 4096;
  DynamicBlockPolicy dynamic;
  for (const bool is_dynamic : {false, true}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(is_dynamic ? "dynamic" : "static") +
                   " threads=" + std::to_string(threads));
      exec::ThreadPool::instance().configure(threads);
      JobConfig cfg;
      if (is_dynamic) cfg.policy = &dynamic;
      sim::Simulator s0;
      Cluster c0(s0, 2, NodeConfig{});
      const auto plain = run_job(c0, counting_spec(false), cfg, kItems);
      auto calls = std::make_shared<int>(0);
      sim::Simulator s1;
      Cluster c1(s1, 2, NodeConfig{});
      const auto fused =
          run_job(c1, throwing_run_spec(false, 0, calls), cfg, kItems);
      EXPECT_GT(*calls, 0);
      EXPECT_EQ(fused.output, plain.output);
      EXPECT_EQ(fused.stats.elapsed, plain.stats.elapsed);
      EXPECT_EQ(fused.stats.intermediate_pairs,
                plain.stats.intermediate_pairs);
    }
  }
  exec::ThreadPool::instance().configure(0);
}

}  // namespace
}  // namespace prs::core
