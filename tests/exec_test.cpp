// Host thread pool (src/exec): lifecycle, correctness of the parallel
// wrappers, exception propagation, nested regions, and — the load-bearing
// property — byte-identical app results for any thread count, and input
// generators that write the bytes of one serial Rng walk.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cmeans.hpp"
#include "apps/gmm.hpp"
#include "apps/wordcount.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"

namespace {

using namespace prs;

/// Restores the pool's default sizing when a test scope ends, so thread
/// counts forced by one test never leak into another.
struct PoolGuard {
  ~PoolGuard() { exec::ThreadPool::instance().configure(0); }
};

/// FNV-1a over raw double bytes — equality below means byte identity.
std::uint64_t digest(std::uint64_t h, const double* p, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

TEST(ThreadPool, ConfigureAndShutdownRoundTrip) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  pool.configure(3);
  EXPECT_EQ(pool.threads(), 3);

  std::vector<int> out(100, 0);
  exec::parallel_for(0, out.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<int>(i);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }

  // Shut down, then run again: workers must restart lazily.
  pool.shutdown();
  long sum = exec::parallel_reduce(
      1, 101, 9, 0L,
      [](std::size_t b, std::size_t e, long acc) {
        for (std::size_t i = b; i < e; ++i) acc += static_cast<long>(i);
        return acc;
      },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(sum, 5050);

  pool.configure(0);
  EXPECT_EQ(pool.threads(), exec::ThreadPool::default_threads());
}

/// The id of the last marking region a thread ran a chunk of; a freshly
/// spawned thread starts at 0.
thread_local int tl_region = 0;

/// Runs slow chunks (so every worker lane takes part) that stamp their
/// thread with `region`; returns how many worker-lane chunks found the
/// stamp of region - 1 already on their thread.
int chunks_on_surviving_workers(int region) {
  std::atomic<int> survived{0};
  exec::parallel_for(0, 12, 1, [&](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (exec::ThreadPool::current_lane() == 0) return;
    if (tl_region == region - 1) survived.fetch_add(1);
    tl_region = region;
  });
  return survived.load();
}

TEST(ThreadPool, ConfigureToTheSameSizeKeepsTheWorkers) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  pool.configure(3);
  chunks_on_surviving_workers(1);
  pool.configure(3);
  EXPECT_EQ(pool.threads(), 3);
  EXPECT_GT(chunks_on_surviving_workers(2), 0);
  // A new size joins the workers: the next region runs on fresh threads.
  pool.configure(2);
  EXPECT_EQ(chunks_on_surviving_workers(3), 0);
}

TEST(ThreadPool, RejectsOutOfRangeConfiguration) {
  auto& pool = exec::ThreadPool::instance();
  EXPECT_THROW(pool.configure(-1), Error);
  EXPECT_THROW(pool.configure(exec::ThreadPool::kMaxThreads + 1), Error);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  PoolGuard guard;
  exec::ThreadPool::instance().configure(4);
  int calls = 0;
  exec::parallel_for(5, 5, 16, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(exec::parallel_reduce(
                0, 1, 1024, 10,
                [](std::size_t, std::size_t, int acc) { return acc + 1; },
                [](int a, int b) { return a + b; }),
            11);
}

TEST(ThreadPool, ChunkCountEdgesAndOverflow) {
  // Basic shapes.
  EXPECT_EQ(exec::chunk_count(0, 16), 0u);
  EXPECT_EQ(exec::chunk_count(1, 16), 1u);
  EXPECT_EQ(exec::chunk_count(16, 16), 1u);
  EXPECT_EQ(exec::chunk_count(17, 16), 2u);
  // Grain far above n: one chunk, never zero. The old (n + g - 1) / g
  // wrapped for grain near SIZE_MAX and reported 0 chunks for a non-empty
  // range (then indexed partials[0] out of bounds).
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(exec::chunk_count(5, huge), 1u);
  EXPECT_EQ(exec::chunk_count(5, huge - 3), 1u);
  EXPECT_EQ(exec::chunk_count(huge, huge), 1u);
  EXPECT_EQ(exec::chunk_count(huge, 1), huge);
  EXPECT_THROW(exec::chunk_count(5, 0), Error);
}

TEST(ThreadPool, RangesNearSizeMaxDoNotWrap) {
  PoolGuard guard;
  exec::ThreadPool::instance().configure(3);
  // A range whose end sits at SIZE_MAX: the old chunk-end computation
  // cb + grain overflowed to a tiny value and handed out a truncated (or
  // inverted) chunk. Count items and check the exact bounds instead.
  const std::size_t end = std::numeric_limits<std::size_t>::max();
  const std::size_t begin = end - 5;
  std::atomic<std::size_t> items{0};
  exec::parallel_for(begin, end, 1024, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, begin);
    EXPECT_EQ(e, end);
    items += e - b;
  });
  EXPECT_EQ(items.load(), 5u);

  // Same boundary through the reduce path, with more than one chunk.
  const std::size_t sum = exec::parallel_reduce(
      end - 10, end, 4, std::size_t{0},
      [&](std::size_t b, std::size_t e, std::size_t acc) {
        EXPECT_LE(b, e);
        return acc + (e - b);
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  EXPECT_EQ(sum, 10u);
}

TEST(ThreadPool, ReduceWithGrainAboveRange) {
  PoolGuard guard;
  exec::ThreadPool::instance().configure(4);
  // n < grain must mean exactly one chunk covering the whole range.
  int chunks = 0;
  const long total = exec::parallel_reduce(
      3, 10, exec::kDefaultGrain, 0L,
      [&](std::size_t b, std::size_t e, long acc) {
        ++chunks;
        EXPECT_EQ(b, 3u);
        EXPECT_EQ(e, 10u);
        for (std::size_t i = b; i < e; ++i) acc += static_cast<long>(i);
        return acc;
      },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(chunks, 1);
  EXPECT_EQ(total, 3 + 4 + 5 + 6 + 7 + 8 + 9);
}

TEST(ThreadPool, LowestChunkExceptionPropagates) {
  PoolGuard guard;
  exec::ThreadPool::instance().configure(4);
  // Several chunks throw; the *first* failing chunk's exception must
  // surface regardless of which worker hits which chunk first.
  try {
    exec::parallel_for(0, 1000, 10, [](std::size_t b, std::size_t) {
      if (b >= 300) throw std::runtime_error("chunk@" + std::to_string(b));
    });
    FAIL() << "expected the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk@300");
  }
  // The pool must stay usable after a failed region.
  std::atomic<int> ran{0};
  exec::parallel_for(0, 100, 10,
                     [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, NestedRegionsRunInlineAndStaySafe) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  pool.configure(4);
  pool.reset_stats();
  EXPECT_FALSE(exec::ThreadPool::in_parallel_region());

  // 8 outer chunks x 32 inner items; the inner region must not deadlock
  // and must see in_parallel_region() == true.
  std::vector<int> out(8 * 32, 0);
  std::atomic<int> inner_observed{0};
  exec::parallel_for(0, 8, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      if (exec::ThreadPool::in_parallel_region()) ++inner_observed;
      exec::parallel_for(0, 32, 4, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          out[o * 32 + i] = static_cast<int>(o * 32 + i);
        }
      });
    }
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
  EXPECT_EQ(inner_observed.load(), 8);
  EXPECT_FALSE(exec::ThreadPool::in_parallel_region());

  const exec::PoolStats s = pool.stats();
  EXPECT_EQ(s.jobs, 1u);
  EXPECT_EQ(s.nested_jobs, 8u);
  EXPECT_EQ(s.chunks, 8u + 8u * 8u);  // outer chunks + 8 inner per outer
}

TEST(ThreadPool, StatsCountChunksAndOccupancy) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  pool.configure(2);
  pool.reset_stats();
  exec::parallel_for(0, 100, 10, [](std::size_t, std::size_t) {});
  const exec::PoolStats s = pool.stats();
  EXPECT_EQ(s.jobs, 1u);
  EXPECT_EQ(s.chunks, 10u);
  EXPECT_EQ(s.threads, 2);
  EXPECT_GT(s.lane_engagements, 0u);
  EXPECT_GE(s.occupancy(), 0.0);
  EXPECT_LE(s.occupancy(), 1.0);
  // Every chunk was either run by the caller or stolen-adjacent on a
  // worker lane; the split varies, the total must not.
  EXPECT_LE(s.caller_chunks, s.chunks);
}

/// Forces exactly one steal of a lane-0 chunk by lane 1, deterministically:
/// with 2 lanes and 4 unit chunks, lane 0 owns {0, 1} and lane 1 owns
/// {2, 3}. Chunk 0's body spins until the other three chunks finished, so
/// whichever thread claims it is parked — the other thread must run its
/// own block and steal the one remaining lane-0 chunk. Either interleaving
/// yields exactly one cross-lane claim of a lane-0 chunk.
TEST(ThreadPool, ForcedStealCountsOneStolenChunk) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  pool.configure(2);
  pool.reset_stats();
  std::atomic<int> others_done{0};
  exec::parallel_for(0, 4, 1, [&](std::size_t b, std::size_t) {
    if (b == 0) {
      for (int spin = 0; others_done.load() < 3 && spin < 200000; ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } else {
      ++others_done;
    }
  });
  EXPECT_EQ(pool.stats().stolen_chunks, 1u);
}

TEST(ThreadPool, ReduceIsDeterministicAcrossThreadCounts) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  // Floating-point sum whose value depends on association order: the fixed
  // chunk tree must give bit-equal results for every thread count.
  Rng rng(7);
  std::vector<double> xs(10001);
  for (auto& x : xs) x = rng.uniform() * 1e6 - 5e5;

  auto run = [&] {
    return exec::parallel_reduce(
        0, xs.size(), 64, 0.0,
        [&](std::size_t b, std::size_t e, double acc) {
          for (std::size_t i = b; i < e; ++i) acc += xs[i];
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  pool.configure(1);
  const double ref = run();
  for (int t : {2, 3, 8}) {
    pool.configure(t);
    for (int rep = 0; rep < 5; ++rep) {
      const double got = run();
      EXPECT_EQ(std::memcmp(&got, &ref, sizeof(double)), 0)
          << "threads=" << t << " rep=" << rep;
    }
  }
}

/// The tentpole acceptance check: full app runs produce byte-identical
/// results for 1, 2 and hardware_concurrency threads.
TEST(ThreadPool, AppResultsAreByteIdenticalForAnyThreadCount) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();

  Rng rng(42);
  auto ds = data::generate_blobs(rng, 600, 8, 3, 10.0, 1.0);
  auto corpus = std::make_shared<const apps::Corpus>(
      apps::generate_corpus(rng, 400, 8, 200));

  auto run_all = [&] {
    std::uint64_t h = 1469598103934665603ULL;
    apps::CmeansParams cp;
    cp.clusters = 3;
    cp.max_iterations = 8;
    auto cm = apps::cmeans_serial(ds.points, cp);
    h = digest(h, &cm.centers(0, 0), cm.centers.size());
    h = digest(h, &cm.objective, 1);

    apps::GmmParams gp;
    gp.components = 3;
    gp.max_iterations = 8;
    auto gm = apps::gmm_serial(ds.points, gp);
    h = digest(h, &gm.means(0, 0), gm.means.size());
    h = digest(h, &gm.variances(0, 0), gm.variances.size());
    h = digest(h, &gm.log_likelihood, 1);

    // Wordcount through the parallel map kernel (integer counts).
    auto spec = apps::wordcount_spec(corpus);
    core::Emitter<std::string, long> em;
    spec.cpu_map(core::InputSlice{0, corpus->size()}, em);
    for (const auto& [w, c] : em.pairs()) {
      for (const char ch : w) h = (h ^ static_cast<unsigned char>(ch)) *
                                  1099511628211ULL;
      const auto cd = static_cast<double>(c);
      h = digest(h, &cd, 1);
    }
    return h;
  };

  pool.configure(1);
  const std::uint64_t ref = run_all();
  const int hw = exec::ThreadPool::default_threads();
  for (int t : {2, hw}) {
    pool.configure(t);
    EXPECT_EQ(run_all(), ref) << "threads=" << t;
  }
}

// ---------------------------------------------------------------------------
// parallel_generate and the generators built on it. The oracles are copies of
// the serial loops the generators ran before they were chunked: the chunked
// generators must write the same bytes and leave the caller's Rng in the
// same state, at every pool size.

data::Dataset serial_mixture(
    Rng& rng, std::size_t n,
    const std::vector<data::GaussianComponent>& comps) {
  const std::size_t d = comps.front().mean.size();
  double total_weight = 0.0;
  for (const auto& c : comps) total_weight += c.weight;
  data::Dataset ds;
  ds.points = linalg::MatrixD(n, d);
  ds.labels.resize(n);
  ds.num_clusters = static_cast<int>(comps.size());
  for (std::size_t i = 0; i < n; ++i) {
    double u = rng.uniform() * total_weight;
    std::size_t k = 0;
    for (; k + 1 < comps.size(); ++k) {
      if (u < comps[k].weight) break;
      u -= comps[k].weight;
    }
    const auto& c = comps[k];
    for (std::size_t j = 0; j < d; ++j) {
      ds.points(i, j) = rng.normal(c.mean[j], c.stddev[j]);
    }
    ds.labels[i] = static_cast<int>(k);
  }
  return ds;
}

linalg::MatrixD serial_random_matrix(Rng& rng, std::size_t rows,
                                     std::size_t cols, double lo, double hi) {
  linalg::MatrixD m(rows, cols);
  for (auto& v : m.storage()) v = rng.uniform(lo, hi);
  return m;
}

std::vector<double> serial_random_vector(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

apps::Corpus serial_corpus(Rng& rng, std::size_t lines,
                           std::size_t words_per_line,
                           std::size_t vocabulary) {
  apps::Corpus corpus;
  corpus.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    std::string line;
    for (std::size_t w = 0; w < words_per_line; ++w) {
      const double u = rng.uniform();
      const auto id =
          static_cast<std::size_t>(u * u * static_cast<double>(vocabulary));
      if (w > 0) line += ' ';
      line += "word" + std::to_string(std::min(id, vocabulary - 1));
    }
    corpus.push_back(std::move(line));
  }
  return corpus;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The two engines produce the same next uniform() and normal(), bit for
/// bit (a pending cached normal included).
void expect_same_continuation(Rng got, Rng want, const std::string& where) {
  const double gu = got.uniform(), wu = want.uniform();
  const double gn = got.normal(), wn = want.normal();
  EXPECT_EQ(std::memcmp(&gu, &wu, sizeof(double)), 0) << where;
  EXPECT_EQ(std::memcmp(&gn, &wn, sizeof(double)), 0) << where;
}

/// An entry engine: fresh, or holding a pending cached normal.
Rng entry_rng(std::uint64_t seed, bool cached) {
  Rng rng(seed);
  if (cached) rng.normal();
  return rng;
}

/// Points per mixture chunk at dimension d, as data::sample_gaussian_mixture
/// sizes them: about kGenerateDraws draws, an even number of points.
std::size_t mixture_grain(std::size_t d) {
  return std::max<std::size_t>(
      2, (exec::kGenerateDraws / (d + 1)) & ~std::size_t{1});
}

/// Item counts around one chunk boundary plus several chunks.
std::vector<std::size_t> edge_counts(std::size_t grain) {
  return {0, 1, grain - 1, grain, grain + 1, 3 * grain + 5};
}

TEST(ParallelGenerate, MixtureMatchesTheSerialWalk) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  for (const std::size_t d : {1u, 3u, 4u, 100u}) {
    // Unequal weights and per-dimension parameters, so a point taken from
    // the wrong draws lands on other bytes.
    Rng param_rng(d);
    std::vector<data::GaussianComponent> comps(3);
    for (std::size_t k = 0; k < comps.size(); ++k) {
      comps[k].weight = 1.0 + static_cast<double>(k);
      for (std::size_t j = 0; j < d; ++j) {
        comps[k].mean.push_back(param_rng.uniform(-5.0, 5.0));
        comps[k].stddev.push_back(param_rng.uniform(0.5, 2.0));
      }
    }
    for (const std::size_t n : edge_counts(mixture_grain(d))) {
      for (const bool cached : {false, true}) {
        Rng want_rng = entry_rng(100 + n, cached);
        const auto want = serial_mixture(want_rng, n, comps);
        for (const int t : {1, 2, 4}) {
          pool.configure(t);
          const std::string where = "d=" + std::to_string(d) +
                                    " n=" + std::to_string(n) +
                                    " cached=" + std::to_string(cached) +
                                    " threads=" + std::to_string(t);
          Rng got_rng = entry_rng(100 + n, cached);
          const auto got = data::sample_gaussian_mixture(got_rng, n, comps);
          EXPECT_EQ(got.points.rows(), n) << where;
          EXPECT_TRUE(same_bytes(got.points.storage(), want.points.storage()))
              << where;
          EXPECT_EQ(got.labels, want.labels) << where;
          EXPECT_EQ(got.num_clusters, want.num_clusters) << where;
          expect_same_continuation(got_rng, want_rng, where);
        }
      }
    }
  }
}

TEST(ParallelGenerate, UniformMatricesAndVectorsMatchTheSerialWalk) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  struct Shape {
    std::size_t rows, cols;
    double lo, hi;
  };
  const std::size_t g = exec::kGenerateDraws;
  const std::vector<Shape> shapes = {
      {0, 5, -1.0, 1.0},     {7, 0, -1.0, 1.0}, {1, 1, -1.0, 1.0},
      {g - 1, 1, -1.0, 1.0}, {1, g, -1.0, 1.0}, {g + 1, 1, 0.0, 3.0},
      {301, 700, -2.0, 0.5}, {300, 700, 2.5, 2.5}};
  for (const auto& s : shapes) {
    for (const bool cached : {false, true}) {
      Rng want_rng = entry_rng(s.rows * 31 + s.cols, cached);
      const auto want =
          serial_random_matrix(want_rng, s.rows, s.cols, s.lo, s.hi);
      for (const int t : {1, 2, 4}) {
        pool.configure(t);
        const std::string where = "matrix " + std::to_string(s.rows) + "x" +
                                  std::to_string(s.cols) +
                                  " cached=" + std::to_string(cached) +
                                  " threads=" + std::to_string(t);
        Rng got_rng = entry_rng(s.rows * 31 + s.cols, cached);
        const auto got =
            data::random_matrix(got_rng, s.rows, s.cols, s.lo, s.hi);
        EXPECT_EQ(got.rows(), s.rows) << where;
        EXPECT_EQ(got.cols(), s.cols) << where;
        EXPECT_TRUE(same_bytes(got.storage(), want.storage())) << where;
        expect_same_continuation(got_rng, want_rng, where);
      }
    }
  }
  for (const std::size_t n : edge_counts(g)) {
    Rng want_rng = entry_rng(n, true);
    const auto want = serial_random_vector(want_rng, n);
    for (const int t : {1, 2, 4}) {
      pool.configure(t);
      const std::string where =
          "vector n=" + std::to_string(n) + " threads=" + std::to_string(t);
      Rng got_rng = entry_rng(n, true);
      EXPECT_TRUE(same_bytes(data::random_vector(got_rng, n), want)) << where;
      expect_same_continuation(got_rng, want_rng, where);
    }
  }
}

TEST(ParallelGenerate, CorpusMatchesTheSerialWalk) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  for (const std::size_t words : {1u, 40u}) {
    const std::size_t grain = exec::kGenerateDraws / words;
    for (const std::size_t vocabulary : {1u, 1000000u}) {
      for (const std::size_t lines : {std::size_t{0}, std::size_t{1},
                                      grain - 1, grain, grain + 1,
                                      3 * grain + 1}) {
        Rng want_rng = entry_rng(lines + words, lines % 2 == 1);
        const auto want = serial_corpus(want_rng, lines, words, vocabulary);
        for (const int t : {1, 2, 4}) {
          pool.configure(t);
          const std::string where =
              "words=" + std::to_string(words) +
              " vocabulary=" + std::to_string(vocabulary) +
              " lines=" + std::to_string(lines) +
              " threads=" + std::to_string(t);
          Rng got_rng = entry_rng(lines + words, lines % 2 == 1);
          EXPECT_EQ(apps::generate_corpus(got_rng, lines, words, vocabulary),
                    want)
              << where;
          expect_same_continuation(got_rng, want_rng, where);
        }
      }
    }
  }
}

constexpr std::size_t kExtraDrawGrain = 100;

/// Runs parallel_generate over out.size() items in chunks of
/// kExtraDrawGrain with a body that writes one next() per item and draws one
/// extra value after item `extra_at`. Returns how often the body ran over
/// each chunk.
std::vector<int> generate_with_extra_draw(std::size_t extra_at,
                                          std::vector<std::uint64_t>& out,
                                          Rng& rng) {
  std::vector<std::atomic<int>> calls(
      exec::chunk_count(out.size(), kExtraDrawGrain));
  exec::parallel_generate(
      rng, out.size(), kExtraDrawGrain, 1,
      [&](std::size_t b, std::size_t e, Rng& r) {
        ++calls[b / kExtraDrawGrain];
        for (std::size_t i = b; i < e; ++i) {
          out[i] = r.next();
          if (i == extra_at) r.next();
        }
      });
  return std::vector<int>(calls.begin(), calls.end());
}

TEST(ParallelGenerate, ReRunStartsRightAfterTheChunkThatDrewExtra) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  constexpr std::size_t kN = 450;  // five chunks of 100, the last short
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  for (const std::size_t extra_at : {kNone, std::size_t{0}, std::size_t{250},
                                     std::size_t{449}}) {
    Rng want_rng(9);
    std::vector<std::uint64_t> want(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      want[i] = want_rng.next();
      if (i == extra_at) want_rng.next();
    }
    for (const int t : {1, 2, 4}) {
      pool.configure(t);
      const std::string where = "extra_at=" + std::to_string(extra_at) +
                                " threads=" + std::to_string(t);
      Rng got_rng(9);
      std::vector<std::uint64_t> got(kN);
      const auto calls = generate_with_extra_draw(extra_at, got, got_rng);
      EXPECT_EQ(got, want) << where;
      EXPECT_TRUE(got_rng == want_rng) << where;

      // One lane: one call over the whole range. Otherwise every chunk runs
      // once, and the chunks after the one that drew extra once more; a
      // correct prediction (no extra draw, or one in the last chunk)
      // re-runs nothing.
      std::vector<int> expected(calls.size(), 0);
      if (t == 1) {
        expected[0] = 1;
      } else {
        for (std::size_t c = 0; c < expected.size(); ++c) {
          expected[c] =
              extra_at != kNone && c > extra_at / kExtraDrawGrain ? 2 : 1;
        }
      }
      EXPECT_EQ(calls, expected) << where;
    }
  }
}

TEST(ParallelGenerate, EvenMixtureChunksNeverReRunAndNestedCallsRunOnce) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  pool.configure(4);
  // The mixture's draw pattern at d = 3: one uniform and three normals per
  // point. With an odd grain a chunk boundary splits a Box–Muller pair, the
  // prediction misses and every later chunk re-runs; with an even grain no
  // chunk re-runs. Either way the bytes are the serial walk's.
  constexpr std::size_t kN = 1000;
  auto point = [](std::vector<double>& out, std::size_t i, Rng& r) {
    out[4 * i] = r.uniform();
    for (std::size_t j = 1; j < 4; ++j) out[4 * i + j] = r.normal();
  };
  Rng want_rng(21);
  std::vector<double> want(4 * kN);
  for (std::size_t i = 0; i < kN; ++i) point(want, i, want_rng);

  for (const std::size_t grain : {std::size_t{100}, std::size_t{99}}) {
    std::atomic<int> calls{0};
    Rng got_rng(21);
    std::vector<double> got(4 * kN);
    exec::parallel_generate(got_rng, kN, grain, 4,
                            [&](std::size_t b, std::size_t e, Rng& r) {
                              ++calls;
                              for (std::size_t i = b; i < e; ++i) {
                                point(got, i, r);
                              }
                            });
    const int chunks = static_cast<int>(exec::chunk_count(kN, grain));
    EXPECT_TRUE(same_bytes(got, want)) << "grain=" << grain;
    EXPECT_TRUE(got_rng == want_rng) << "grain=" << grain;
    EXPECT_EQ(calls.load(), grain % 2 == 0 ? chunks : 2 * chunks - 1)
        << "grain=" << grain;
  }

  // Inside a parallel region the body runs once, inline, over the range.
  int nested_calls = 0;
  Rng nested_rng(21);
  std::vector<double> nested(4 * kN);
  exec::parallel_for(0, 1, 1, [&](std::size_t, std::size_t) {
    exec::parallel_generate(nested_rng, kN, 100, 4,
                            [&](std::size_t b, std::size_t e, Rng& r) {
                              ++nested_calls;
                              for (std::size_t i = b; i < e; ++i) {
                                point(nested, i, r);
                              }
                            });
  });
  EXPECT_EQ(nested_calls, 1);
  EXPECT_TRUE(same_bytes(nested, want));
  EXPECT_TRUE(nested_rng == want_rng);
}

}  // namespace
