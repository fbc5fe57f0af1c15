// A wordcount map task that fails part way must leave nothing behind for
// the next task its thread runs: the per-thread count table's keys view
// the failed task's corpus, which may be gone by then. The global
// operator new below throws std::bad_alloc at a chosen allocation of the
// calling thread, so every allocation inside one map call fails in turn.
// It replaces operator new for the whole program, which is why this suite
// is a binary of its own.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/wordcount.hpp"

namespace {

thread_local std::size_t t_fail_at = 0;  // 0 = never fail
thread_local std::size_t t_allocations = 0;

/// While alive, the k-th allocation on this thread throws std::bad_alloc.
class FailNthAllocation {
 public:
  explicit FailNthAllocation(std::size_t k) {
    t_allocations = 0;
    t_fail_at = k;
  }
  ~FailNthAllocation() { t_fail_at = 0; }
  FailNthAllocation(const FailNthAllocation&) = delete;
  FailNthAllocation& operator=(const FailNthAllocation&) = delete;
};

}  // namespace

void* operator new(std::size_t size) {
  if (t_fail_at != 0 && ++t_allocations == t_fail_at) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC flags free() on memory from operator new once these are inlined;
// here both ends are malloc and free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace prs;
using Pairs = std::vector<std::pair<std::string, long>>;

/// Task A's lines: a word longer than any small-string buffer (emitting
/// it allocates) and more distinct words than the count table's initial
/// 1024 slots hold at its 70% load, so A grows the table once.
apps::Corpus task_a_lines() {
  std::string many;
  for (int i = 0; i < 800; ++i) {
    many += 'w';
    many += std::to_string(i);
    many += ' ';
  }
  return {"alpha_is_a_long_word_here beta gamma", many,
          "alpha_is_a_long_word_here delta"};
}

/// On a fresh thread: runs task A with its k-th allocation failing,
/// destroys A's corpus, then runs task B. Returns B's pairs in key order;
/// `completed` says whether A ran to the end.
Pairs run_a_then_b(std::size_t k, const apps::WordCountSpec& spec_b,
                   bool& completed) {
  Pairs got;
  std::thread([&] {
    {
      const auto a = std::make_shared<const apps::Corpus>(task_a_lines());
      const auto spec_a = apps::wordcount_spec(a);
      const core::InputSlice all{0, a->size()};
      core::Emitter<std::string, long> a_out;
      try {
        FailNthAllocation fail(k);
        spec_a.cpu_map(all, a_out);
        completed = true;
      } catch (const std::bad_alloc&) {
      }
    }  // A's corpus is gone.
    core::Emitter<std::string, long> b_out;
    spec_b.cpu_map(core::InputSlice{0, 1}, b_out);
    got = b_out.pairs();
  }).join();
  std::sort(got.begin(), got.end());
  return got;
}

TEST(WordcountAllocFailure, FailedTaskLeavesNoWordsForTheThreadsNextTask) {
  const auto b = std::make_shared<const apps::Corpus>(apps::Corpus{"zeta eta"});
  const auto serial = apps::wordcount_serial(*b);
  const Pairs want(serial.begin(), serial.end());
  const auto spec_b = apps::wordcount_spec(b);

  bool completed = false;
  std::size_t k = 1;
  for (; !completed; ++k) {
    ASSERT_LT(k, 1000u) << "task A never completed";
    EXPECT_EQ(run_a_then_b(k, spec_b, completed), want)
        << "allocation " << k << " of task A failed"
        << (completed ? " (none: A completed)" : "");
  }
  // The table, its index list's regrowths, its one growth, the emitter
  // and the long word: every kind of allocation in a task failed once.
  EXPECT_GT(k, 10u);
}

}  // namespace
