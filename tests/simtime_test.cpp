// Unit tests for the discrete-event simulation engine: clock semantics,
// deterministic ordering, coroutine processes, futures, channels, resources
// and bandwidth links.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "simtime/channel.hpp"
#include "simtime/future.hpp"
#include "simtime/process.hpp"
#include "simtime/resource.hpp"
#include "simtime/simulator.hpp"

namespace prs::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, AdvancesClockToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 2.5);
  EXPECT_EQ(sim.now(), 2.5);
}

TEST(Simulator, DispatchesInTimeOrderRegardlessOfInsertion) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakFifoByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), InvalidArgument);
  EXPECT_THROW(sim.schedule_after(-0.1, [] {}), InvalidArgument);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(1.0, chain);
  };
  sim.schedule_after(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(3.5, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 2);  // events at t<=2 inclusive
  EXPECT_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(0.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

// -- processes ---------------------------------------------------------------

Process sleeper(Simulator& sim, std::vector<double>& wakes, double dt,
                int times) {
  for (int i = 0; i < times; ++i) {
    co_await delay(sim, dt);
    wakes.push_back(sim.now());
  }
}

TEST(Process, DelayAdvancesVirtualTime) {
  Simulator sim;
  std::vector<double> wakes;
  sim.spawn(sleeper(sim, wakes, 0.5, 3));
  sim.run();
  ASSERT_EQ(wakes.size(), 3u);
  EXPECT_DOUBLE_EQ(wakes[0], 0.5);
  EXPECT_DOUBLE_EQ(wakes[1], 1.0);
  EXPECT_DOUBLE_EQ(wakes[2], 1.5);
}

TEST(Process, ManyProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<double> a, b;
  sim.spawn(sleeper(sim, a, 0.3, 4));
  sim.spawn(sleeper(sim, b, 0.5, 2));
  sim.run();
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(a.back(), 1.2);
  EXPECT_DOUBLE_EQ(b.back(), 1.0);
}

Process thrower(Simulator& sim) {
  co_await delay(sim, 1.0);
  throw InvalidArgument("boom");
}

TEST(Process, ExceptionPropagatesToRun) {
  Simulator sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), InvalidArgument);
}

TEST(Process, UnspawnedProcessDoesNotLeakOrRun) {
  Simulator sim;
  bool ran = false;
  {
    auto coro = [](Simulator& s, bool& flag) -> Process {
      flag = true;
      co_await delay(s, 1.0);
    }(sim, ran);
    // destroyed without spawn
  }
  sim.run();
  EXPECT_FALSE(ran);
}

// -- futures -----------------------------------------------------------------

Process await_future(Simulator& sim, Future<int> f, std::vector<int>& out) {
  const int v = co_await f;
  out.push_back(v);
  out.push_back(static_cast<int>(sim.now()));
}

Process resolve_later(Simulator& sim, Promise<int> p, double at, int value) {
  co_await delay(sim, at);
  p.set_value(value);
}

TEST(Future, AwaitBlocksUntilResolution) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<int> out;
  sim.spawn(await_future(sim, p.get_future(), out));
  sim.spawn(resolve_later(sim, p, 3.0, 42));
  sim.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 42);
  EXPECT_EQ(out[1], 3);
}

TEST(Future, AwaitOnAlreadyResolvedReturnsImmediately) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(7);
  std::vector<int> out;
  sim.spawn(await_future(sim, p.get_future(), out));
  sim.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 0);
}

TEST(Future, MultipleWaitersAllResume) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<int> out;
  for (int i = 0; i < 5; ++i) {
    sim.spawn(await_future(sim, p.get_future(), out));
  }
  sim.spawn(resolve_later(sim, p, 1.0, 9));
  sim.run();
  EXPECT_EQ(out.size(), 10u);
}

TEST(Future, DoubleResolveThrows) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), InvalidArgument);
}

TEST(Future, OnReadyCallbackFires) {
  Simulator sim;
  Promise<int> p(sim);
  int seen = 0;
  p.get_future().on_ready([&](const int& v) { seen = v; });
  p.set_value(13);
  sim.run();
  EXPECT_EQ(seen, 13);
}

TEST(Future, WhenAllResolvesAfterLastInput) {
  Simulator sim;
  std::vector<Promise<int>> ps;
  std::vector<Future<int>> fs;
  for (int i = 0; i < 4; ++i) {
    ps.emplace_back(sim);
    fs.push_back(ps.back().get_future());
  }
  auto all = when_all(sim, fs);
  double resolved_at = -1.0;
  all.on_ready([&](const Unit&) { resolved_at = sim.now(); });
  for (int i = 0; i < 4; ++i) {
    sim.spawn(resolve_later(sim, ps[static_cast<size_t>(i)],
                            1.0 + static_cast<double>(i), i));
  }
  sim.run();
  EXPECT_DOUBLE_EQ(resolved_at, 4.0);
}

TEST(Future, WhenAllOfEmptySetResolvesImmediately) {
  Simulator sim;
  auto all = when_all(sim, std::vector<Future<int>>{});
  EXPECT_TRUE(all.ready());
}

TEST(Future, WithTimeoutResolvesTrueWhenFutureWins) {
  Simulator sim;
  Promise<int> p(sim);
  sim.schedule_at(1.0, [&] { p.set_value(7); });
  bool result = false;
  double resolved_at = -1.0;
  auto timed = with_timeout(sim, p.get_future(), 5.0);
  timed.on_ready([&](bool ok) {
    result = ok;
    resolved_at = sim.now();
  });
  sim.run();
  EXPECT_TRUE(result);
  EXPECT_EQ(resolved_at, 1.0);
}

TEST(Future, WithTimeoutResolvesFalseWhenDeadlineWins) {
  Simulator sim;
  Promise<int> p(sim);
  sim.schedule_at(9.0, [&] { p.set_value(7); });  // too late
  bool result = true;
  double resolved_at = -1.0;
  auto timed = with_timeout(sim, p.get_future(), 2.0);
  timed.on_ready([&](bool ok) {
    result = ok;
    resolved_at = sim.now();
  });
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(resolved_at, 2.0);
}

TEST(Future, WithTimeoutLateResolutionLeavesFutureReusable) {
  // A retry can re-arm with_timeout on the same underlying future.
  Simulator sim;
  Promise<int> p(sim);
  sim.schedule_at(3.0, [&] { p.set_value(7); });
  std::vector<bool> results;
  auto first = with_timeout(sim, p.get_future(), 1.0);
  first.on_ready([&](bool ok) {
    results.push_back(ok);
    auto second = with_timeout(sim, p.get_future(), 4.0);
    second.on_ready([&](bool ok2) { results.push_back(ok2); });
  });
  sim.run();
  EXPECT_EQ(results, (std::vector<bool>{false, true}));
}

// -- channels ----------------------------------------------------------------

Process consumer(Simulator& sim, Channel<int>& ch, std::vector<int>& out) {
  for (;;) {
    auto v = co_await ch.recv();
    if (!v) break;
    out.push_back(*v);
    (void)sim;
  }
}

Process producer(Simulator& sim, Channel<int>& ch, int n, double dt) {
  for (int i = 0; i < n; ++i) {
    co_await delay(sim, dt);
    ch.send(i);
  }
  ch.close();
}

TEST(Channel, DeliversAllValuesInOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  sim.spawn(consumer(sim, ch, out));
  sim.spawn(producer(sim, ch, 5, 0.1));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, BufferedValuesSurviveUntilReceiverArrives) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.send(1);
  ch.send(2);
  EXPECT_EQ(ch.size(), 2u);
  std::vector<int> out;
  sim.spawn(consumer(sim, ch, out));
  sim.schedule_at(1.0, [&] { ch.close(); });
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(Channel, CloseWakesBlockedReceiversWithNullopt) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  bool done = false;
  sim.spawn([](Simulator&, Channel<int>& c, bool& flag) -> Process {
    auto v = co_await c.recv();
    EXPECT_FALSE(v.has_value());
    flag = true;
  }(sim, ch, done));
  sim.schedule_at(2.0, [&] { ch.close(); });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Channel, DestroyedWhileReceiverSuspendedYieldsNullopt) {
  // Regression: a process blocked on recv() used to dereference freed
  // channel state when the channel was destroyed before it resumed. The
  // waiter must instead be woken with nullopt and never touch the channel.
  Simulator sim;
  auto ch = std::make_unique<Channel<int>>(sim);
  bool resumed = false;
  sim.spawn([](Simulator&, Channel<int>& c, bool& flag) -> Process {
    auto v = co_await c.recv();
    EXPECT_FALSE(v.has_value());
    flag = true;
  }(sim, *ch, resumed));
  sim.schedule_at(1.0, [&] { ch.reset(); });  // destroy mid-run
  sim.run();
  EXPECT_TRUE(resumed);
}

TEST(Channel, DestroyedAfterCloseBeforeResumeIsSafe) {
  // close() schedules the wake-up; destroying the channel before the woken
  // receiver actually runs must not leave it reading freed state.
  Simulator sim;
  auto ch = std::make_unique<Channel<int>>(sim);
  bool resumed = false;
  sim.spawn([](Simulator&, Channel<int>& c, bool& flag) -> Process {
    auto v = co_await c.recv();
    EXPECT_FALSE(v.has_value());
    flag = true;
  }(sim, *ch, resumed));
  sim.schedule_at(1.0, [&] {
    ch->close();
    ch.reset();  // freed before the close() wake-up event dispatches
  });
  sim.run();
  EXPECT_TRUE(resumed);
}

TEST(Channel, TwoConsumersSplitWorkFifo) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> a, b;
  sim.spawn(consumer(sim, ch, a));
  sim.spawn(consumer(sim, ch, b));
  sim.spawn(producer(sim, ch, 6, 0.1));
  sim.run();
  EXPECT_EQ(a.size() + b.size(), 6u);
  // The first-registered consumer receives the first item.
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a[0], 0);
}

TEST(Channel, SendOnClosedThrows) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.close();
  EXPECT_THROW(ch.send(1), InvalidArgument);
}

TEST(Channel, TryRecvIsNonBlocking) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(5);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

// -- resources ---------------------------------------------------------------

Process hold_resource(Simulator& sim, Resource& res, double for_time,
                      std::vector<double>& grants) {
  co_await res.acquire();
  grants.push_back(sim.now());
  co_await delay(sim, for_time);
  res.release();
}

TEST(Resource, SerializesWhenCapacityIsOne) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<double> grants;
  for (int i = 0; i < 3; ++i) sim.spawn(hold_resource(sim, res, 2.0, grants));
  sim.run();
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_DOUBLE_EQ(grants[0], 0.0);
  EXPECT_DOUBLE_EQ(grants[1], 2.0);
  EXPECT_DOUBLE_EQ(grants[2], 4.0);
}

TEST(Resource, AllowsConcurrencyUpToCapacity) {
  Simulator sim;
  Resource res(sim, 2);
  std::vector<double> grants;
  for (int i = 0; i < 4; ++i) sim.spawn(hold_resource(sim, res, 1.0, grants));
  sim.run();
  ASSERT_EQ(grants.size(), 4u);
  EXPECT_DOUBLE_EQ(grants[0], 0.0);
  EXPECT_DOUBLE_EQ(grants[1], 0.0);
  EXPECT_DOUBLE_EQ(grants[2], 1.0);
  EXPECT_DOUBLE_EQ(grants[3], 1.0);
}

TEST(Resource, MultiUnitAcquireWaitsForEnoughUnits) {
  Simulator sim;
  Resource res(sim, 4);
  std::vector<std::string> log;
  sim.spawn([](Simulator& s, Resource& r,
               std::vector<std::string>& lg) -> Process {
    co_await r.acquire(3);
    lg.push_back("big@" + std::to_string(s.now()));
    co_await delay(s, 2.0);
    r.release(3);
  }(sim, res, log));
  sim.spawn([](Simulator& s, Resource& r,
               std::vector<std::string>& lg) -> Process {
    co_await delay(s, 0.5);
    co_await r.acquire(2);  // only 1 free until t=2
    lg.push_back("small@" + std::to_string(s.now()));
    r.release(2);
  }(sim, res, log));
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].substr(0, 4), "big@");
  EXPECT_EQ(log[1].substr(0, 15), "small@2.000000");
}

TEST(Resource, InvalidAcquireAmountThrows) {
  Simulator sim;
  Resource res(sim, 2);
  EXPECT_THROW(res.acquire(0), InvalidArgument);
  EXPECT_THROW(res.acquire(3), InvalidArgument);
}

TEST(Resource, AvailableTracksGrants) {
  Simulator sim;
  Resource res(sim, 3);
  std::vector<double> grants;
  sim.spawn(hold_resource(sim, res, 1.0, grants));
  sim.run_until(0.5);
  EXPECT_EQ(res.available(), 2u);
  sim.run();
  EXPECT_EQ(res.available(), 3u);
}

Process guard_resource(Simulator& sim, Resource& res, bool& released) {
  co_await res.acquire();
  ResourceGuard core(res, 1);
  co_await delay(sim, 10.0);
  released = true;  // never reached: the frame is destroyed mid-delay
}

TEST(Resource, GuardHeldPastTheResourceReleasesNothing) {
  // A job aborted mid-run leaves device tasks suspended while holding a
  // core; the cluster (and its resources) goes before the Simulator
  // destroys those frames. The guards must not touch the freed resource
  // (the sanitizer legs catch it if they do).
  bool released = false;
  {
    Simulator sim;
    auto res = std::make_unique<Resource>(sim, 1);
    sim.spawn(guard_resource(sim, *res, released));
    sim.run_until(1.0);
    EXPECT_EQ(res->available(), 0u);
    res.reset();
  }
  EXPECT_FALSE(released);
}

// -- bandwidth links ----------------------------------------------------------

Process do_transfer(Simulator& sim, BandwidthLink& link, double bytes,
                    std::vector<double>& done) {
  co_await link.transfer(bytes);
  done.push_back(sim.now());
}

TEST(BandwidthLink, TransferTimeIsSizeOverBandwidth) {
  Simulator sim;
  BandwidthLink link(sim, 100.0);  // 100 B/s
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 250.0, done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 2.5);
}

TEST(BandwidthLink, SerializesConcurrentTransfers) {
  Simulator sim;
  BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 100.0, done));
  sim.spawn(do_transfer(sim, link, 100.0, done));
  sim.spawn(do_transfer(sim, link, 100.0, done));
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
}

TEST(BandwidthLink, LatencyIsPipelinedNotOccupying) {
  Simulator sim;
  BandwidthLink link(sim, 100.0, /*latency=*/0.5);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 100.0, done));
  sim.spawn(do_transfer(sim, link, 100.0, done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.5);  // 1.0 service + 0.5 latency
  EXPECT_DOUBLE_EQ(done[1], 2.5);  // server freed at 2.0, +0.5 latency
}

TEST(BandwidthLink, TracksUtilization) {
  Simulator sim;
  BandwidthLink link(sim, 50.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 100.0, done));
  sim.run();
  EXPECT_DOUBLE_EQ(link.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(link.bytes_transferred(), 100.0);
}

TEST(BandwidthLink, EstimateCompletionMatchesActual) {
  Simulator sim;
  BandwidthLink link(sim, 100.0, 0.25);
  const double est = link.estimate_completion(100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 100.0, done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], est);
}

TEST(BandwidthLink, ZeroByteTransferPaysOnlyLatency) {
  Simulator sim;
  BandwidthLink link(sim, 100.0, 0.5);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 0.0, done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 0.5);
}

// Determinism: the same program produces the identical event trace twice.
TEST(Simulator, EndToEndDeterminism) {
  auto trace = [] {
    Simulator sim;
    Channel<int> ch(sim);
    Resource res(sim, 2);
    std::vector<double> grants;
    std::vector<int> consumed;
    sim.spawn(producer(sim, ch, 8, 0.05));
    sim.spawn(consumer(sim, ch, consumed));
    for (int i = 0; i < 3; ++i) {
      sim.spawn(hold_resource(sim, res, 0.3, grants));
    }
    sim.run();
    return std::tuple(sim.events_dispatched(), sim.now(), grants, consumed);
  };
  EXPECT_EQ(trace(), trace());
}

// A daemon blocked forever on a channel never finishes; its frame (and the
// destructors of its locals) must still be released when the simulator is
// torn down, or every eternal device loop leaks.
struct TeardownGuard {
  int* destroyed;
  ~TeardownGuard() { ++*destroyed; }
};

Process eternal_daemon(Channel<int>& ch, int* destroyed) {
  TeardownGuard guard{destroyed};
  for (;;) {
    auto v = co_await ch.recv();
    if (!v) break;
  }
}

Process send_without_closing(Simulator& sim, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await delay(sim, 0.1);
    ch.send(i);
  }
}

TEST(Simulator, DestroysLiveDaemonFramesAtTeardown) {
  int destroyed = 0;
  {
    Simulator sim;
    Channel<int> ch(sim);
    sim.spawn(eternal_daemon(ch, &destroyed));
    sim.spawn(send_without_closing(sim, ch, 3));  // finishes; ch stays open
    sim.run();
    EXPECT_TRUE(sim.idle());
    // The sender's frame was retired; only the daemon is still live.
    EXPECT_EQ(sim.live_processes(), 1u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace prs::sim
