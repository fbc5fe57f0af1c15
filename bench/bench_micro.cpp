// Wall-clock microbenchmarks (google-benchmark) of the host library:
// discrete-event engine throughput, coroutine channel/resource round trips,
// BLAS kernels, the result digest, collective operations, and an end-to-end
// PRS job — the costs a user of this library actually pays per simulated
// event.
#include <benchmark/benchmark.h>

#include <string>

#include "apps/wordcount.hpp"
#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "linalg/blas.hpp"
#include "simd/scalar_ref.hpp"
#include "simnet/fabric.hpp"
#include "simtime/channel.hpp"
#include "simtime/process.hpp"
#include "simtime/resource.hpp"

namespace {

using namespace prs;

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_after(static_cast<double>(i) * 1e-6, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_SimulatorEventDispatch);

sim::Process ping(sim::Simulator& sim, sim::Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim::delay(sim, 1e-9);
    ch.send(i);
  }
  ch.close();
}

sim::Process pong(sim::Simulator&, sim::Channel<int>& ch, long& sum) {
  for (;;) {
    auto v = co_await ch.recv();
    if (!v) break;
    sum += *v;
  }
}

void BM_ChannelRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Channel<int> ch(sim);
    long sum = 0;
    sim.spawn(ping(sim, ch, 512));
    sim.spawn(pong(sim, ch, sum));
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_ChannelRoundTrip);

void BM_Gemv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  linalg::MatrixD a(n, n);
  for (auto& v : a.storage()) v = rng.uniform(-1, 1);
  std::vector<double> x(n, 1.0), y(n, 0.0);
  for (auto _ : state) {
    linalg::gemv(1.0, a, std::span<const double>(x), 0.0,
                 std::span<double>(y));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n * n));
}
BENCHMARK(BM_Gemv)->Arg(128)->Arg(512);

void BM_GemmBlockedVsNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool blocked = state.range(1) != 0;
  Rng rng(2);
  linalg::MatrixD a(n, n), b(n, n), c(n, n);
  for (auto& v : a.storage()) v = rng.uniform(-1, 1);
  for (auto& v : b.storage()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    if (blocked) {
      linalg::gemm_blocked(1.0, a, b, 0.0, c);
    } else {
      linalg::gemm(1.0, a, b, 0.0, c);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmBlockedVsNaive)->Args({128, 0})->Args({128, 1})->Args({256, 0})->Args({256, 1});

// The result digest over 32 MB (dgemm_bulk's C is 32 MB): arg 0 is the
// serial byte loop that defines FNV-1a, arg 1 the library. PRS_SIMD picks
// the level.
void BM_Fnv1a64(benchmark::State& state) {
  const bool library = state.range(0) == 1;
  std::string bytes(32u << 20, '\0');
  Rng rng(4);
  for (char& c : bytes) c = static_cast<char>(rng.next());
  for (auto _ : state) {
    const std::uint64_t h =
        library ? ckpt::fnv1a64(bytes)
                : simd::ref::fnv_bytes(
                      reinterpret_cast<const unsigned char*>(bytes.data()),
                      bytes.size(), ckpt::kFnvOffsetBasis);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Fnv1a64)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_AllreduceSimulated(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    simnet::Fabric fab(sim, nodes, simnet::FabricSpec{});
    auto remaining = std::make_shared<int>(nodes);
    for (int r = 0; r < nodes; ++r) {
      sim.spawn([](sim::Simulator&, simnet::Communicator& c,
                   std::shared_ptr<int> rem) -> sim::Process {
        simnet::Message mine{1024.0, 1};
        simnet::Combiner combine = [](simnet::Message a, simnet::Message) {
          return a;
        };
        (void)co_await c.allreduce(std::move(mine), std::move(combine), 1);
        --*rem;
      }(sim, fab.comm(r), remaining));
    }
    sim.run();
    benchmark::DoNotOptimize(*remaining);
  }
}
BENCHMARK(BM_AllreduceSimulated)->Arg(4)->Arg(16)->Arg(64);

void BM_EndToEndWordcountJob(benchmark::State& state) {
  Rng rng(3);
  auto corpus = std::make_shared<const apps::Corpus>(
      apps::generate_corpus(rng, 512, 6, 64));
  for (auto _ : state) {
    sim::Simulator sim;
    core::Cluster cluster(sim, 4, core::NodeConfig{});
    auto counts = apps::wordcount_prs(cluster, corpus, core::JobConfig{});
    benchmark::DoNotOptimize(counts.size());
  }
}
BENCHMARK(BM_EndToEndWordcountJob);

}  // namespace

BENCHMARK_MAIN();
