// Deterministic parallel-for / parallel-reduce on top of exec::ThreadPool.
//
// The determinism contract (DESIGN.md "Host execution"):
//   * A range [begin, end) with grain g is decomposed into
//     ceil(n / g) fixed chunks — chunk i covers
//     [begin + i*g, min(begin + (i+1)*g, end)). The decomposition depends
//     only on (n, g), never on the thread count.
//   * parallel_reduce evaluates one partial per chunk (body applied to a
//     copy of the identity) and combines the partials with a fixed-shape
//     binary tree in ascending chunk order. Which thread computed a partial
//     is irrelevant; the combination tree is the same for 1 thread and 64.
//   * Exceptions escaping a chunk body are rethrown at the call site; when
//     several chunks throw, the lowest chunk index wins (deterministic).
//
// Grain-size choice mirrors the paper's MinBs floor for GPU blocks
// (DESIGN.md): chunks must be big enough to amortize hand-off, small enough
// to load-balance. Call sites pass an explicit per-kernel grain; the
// kDefaultGrain fallback suits O(100 flop)/item loops.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"

namespace prs::exec {

inline constexpr std::size_t kDefaultGrain = 1024;

/// Number of fixed chunks for a range of `n` items at grain `g`.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  PRS_REQUIRE(grain > 0, "parallel grain must be positive");
  // 1 + (n-1)/g, not (n+g-1)/g: the latter wraps for grain near
  // SIZE_MAX and would report 0 chunks for a non-empty range.
  return n == 0 ? 0 : 1 + (n - 1) / grain;
}

namespace detail {

template <typename Body>
class ForJob final : public ParallelJob {
 public:
  ForJob(std::size_t begin, std::size_t end, std::size_t grain, Body& body)
      : ParallelJob(chunk_count(end - begin, grain)),
        begin_(begin),
        end_(end),
        grain_(grain),
        body_(body) {}

  void run_chunk(std::size_t chunk) override {
    const std::size_t cb = begin_ + chunk * grain_;
    // end_ - cb > grain_, not cb + grain_ < end_: the sum wraps when the
    // range sits near SIZE_MAX and would hand out a truncated chunk.
    const std::size_t ce = end_ - cb > grain_ ? cb + grain_ : end_;
    body_(cb, ce);
  }

 private:
  std::size_t begin_, end_, grain_;
  Body& body_;
};

template <typename T, typename Body>
class ReduceJob final : public ParallelJob {
 public:
  ReduceJob(std::size_t begin, std::size_t end, std::size_t grain,
            const T& identity, Body& body, std::vector<T>& partials)
      : ParallelJob(chunk_count(end - begin, grain)),
        begin_(begin),
        end_(end),
        grain_(grain),
        identity_(identity),
        body_(body),
        partials_(partials) {}

  void run_chunk(std::size_t chunk) override {
    const std::size_t cb = begin_ + chunk * grain_;
    const std::size_t ce = end_ - cb > grain_ ? cb + grain_ : end_;
    partials_[chunk] = body_(cb, ce, identity_);
  }

 private:
  std::size_t begin_, end_, grain_;
  const T& identity_;
  Body& body_;
  std::vector<T>& partials_;
};

}  // namespace detail

/// Runs body(chunk_begin, chunk_end) over every fixed chunk of
/// [begin, end). The body must only write state disjoint between chunks
/// (e.g. output rows indexed by the chunk's range).
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
  if (begin >= end) return;
  detail::ForJob<Body> job(begin, end, grain, body);
  ThreadPool::instance().run(job);
}

/// Reduces [begin, end): per fixed chunk evaluates
/// partial = body(chunk_begin, chunk_end, identity) and combines the
/// partials with combine(left, right) in a fixed ascending-index binary
/// tree. Returns identity for an empty range.
template <typename T, typename Body, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, Body&& body, Combine&& combine) {
  if (begin >= end) return identity;
  const std::size_t chunks = chunk_count(end - begin, grain);
  std::vector<T> partials(chunks, identity);
  detail::ReduceJob<T, Body> job(begin, end, grain, identity, body, partials);
  ThreadPool::instance().run(job);

  // Fixed-shape tree fold: combine partials (i, i+stride) in ascending
  // order, doubling the stride — the same association for every thread
  // count (and byte-identical to running the chunks serially).
  for (std::size_t stride = 1; stride < chunks; stride *= 2) {
    for (std::size_t i = 0; i + stride < chunks; i += 2 * stride) {
      partials[i] = combine(std::move(partials[i]),
                            std::move(partials[i + stride]));
    }
  }
  return std::move(partials[0]);
}

/// Draws per chunk the input generators aim for: enough to amortize a
/// chunk hand-off, few enough that a 1 M-draw input still makes 16 chunks.
inline constexpr std::size_t kGenerateDraws = 65536;

/// Fills items [0, n) from `rng` in fixed chunks of `grain` items, each run
/// as body(chunk_begin, chunk_end, chunk_rng). The bytes written and the
/// state `rng` is left in equal one serial call body(0, n, rng), at any
/// thread count — not only across thread counts, as for parallel_reduce.
///
/// How: the calling thread walks a copy of `rng` with discard() to each
/// chunk's predicted start, assuming every item takes `draws_per_item`
/// next() calls. The chunks run in one parallel_for. Then each chunk's end
/// state is checked against the next chunk's predicted start; from the
/// first mismatch on, every later chunk is re-run serially from the true
/// state. A prediction misses when a draw is rejected and redrawn
/// (`u1 <= 0` in Rng::normal), or when a chunk does not start with an empty
/// Box–Muller cache: a caller `rng` holding a cached normal, or a chunk
/// boundary between the two normals of one pair (callers size grains so
/// this does not happen). Because a chunk can run twice, `body` must
/// overwrite its items, never append to them. Allocate the outputs before
/// the call, on the calling thread, so workers only write bytes (DESIGN.md
/// §4f). With one pool lane or inside a parallel region, body runs once
/// over the whole range.
template <typename Body>
void parallel_generate(Rng& rng, std::size_t n, std::size_t grain,
                       std::size_t draws_per_item, Body&& body) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks <= 1 || ThreadPool::instance().threads() == 1 ||
      ThreadPool::in_parallel_region()) {
    if (n > 0) body(std::size_t{0}, n, rng);
    return;
  }
  std::vector<Rng> starts(chunks, rng);
  for (std::size_t c = 1; c < chunks; ++c) {
    starts[c] = starts[c - 1];
    starts[c].discard(grain * draws_per_item);
  }
  std::vector<Rng> ends(starts);
  parallel_for(0, n, grain, [&](std::size_t b, std::size_t e) {
    // A local engine: neighbouring slots of `ends` share cache lines.
    Rng local = starts[b / grain];
    body(b, e, local);
    ends[b / grain] = local;
  });
  std::size_t c = 0;
  while (c + 1 < chunks && ends[c] == starts[c + 1]) ++c;
  rng = ends[c];
  for (++c; c < chunks; ++c) {
    const std::size_t b = c * grain;
    body(b, n - b > grain ? b + grain : n, rng);
  }
}

}  // namespace prs::exec
