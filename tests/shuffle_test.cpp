// Wordcount's shuffle input: the one map path (a per-task open-addressing
// count whose keys view the corpus lines, drained in key order) checked
// end to end against the istringstream/std::map oracle, wordcount_serial.
// Corpora target the tokenizer (every C-locale whitespace separator), the
// key storage (words far longer than any small-string buffer) and the
// table's growth (more distinct words per map block than its initial
// slots), at several host-pool sizes — the runner executes a job's map
// payloads side by side on the pool, so each size schedules them
// differently while the bytes must not move.
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/wordcount.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"

namespace {

using namespace prs;

struct PoolGuard {
  ~PoolGuard() { exec::ThreadPool::instance().configure(0); }
};

/// Corpus with every C-locale whitespace separator, empty lines, leading/
/// trailing runs — the shapes where a hand-rolled tokenizer diverges from
/// `istream >> word` if it gets the space set wrong.
apps::Corpus nasty_corpus() {
  return apps::Corpus{
      "plain words here",
      "  leading and   multiple   spaces  ",
      "tabs\tbetween\twords\t",
      "mixed \t\v\f\r separators\r\n",
      "",
      "\t\v\f\r ",
      "one",
      "repeated repeated repeated",
      "x",
  };
}

/// Words of 20-300 bytes (heap-allocated keys once emitted), some shared
/// prefixes so ordering compares past the first bytes.
apps::Corpus long_word_corpus() {
  Rng rng(77);
  apps::Corpus corpus;
  for (int line = 0; line < 400; ++line) {
    std::string text;
    for (int w = 0; w < 6; ++w) {
      const auto len = 20 + rng.uniform_index(280);
      const auto id = rng.uniform_index(60);
      std::string word(len, static_cast<char>('a' + id % 26));
      word += std::to_string(id);
      if (w > 0) text += ' ';
      text += word;
    }
    corpus.push_back(std::move(text));
  }
  return corpus;
}

/// 2000 lines of 20 words over 200000 ids: nearly every word of a map
/// block is distinct.
apps::Corpus many_distinct_corpus() {
  Rng rng(78);
  apps::Corpus corpus;
  for (int line = 0; line < 2000; ++line) {
    std::string text;
    for (int w = 0; w < 20; ++w) {
      if (w > 0) text += ' ';
      text += "w" + std::to_string(rng.uniform_index(200000));
    }
    corpus.push_back(std::move(text));
  }
  return corpus;
}

void expect_prs_matches_serial(const apps::Corpus& corpus_in,
                               const char* what, int nodes = 2,
                               core::JobConfig cfg = {}) {
  PoolGuard guard;
  auto corpus = std::make_shared<const apps::Corpus>(corpus_in);
  const auto want = apps::wordcount_serial(*corpus);
  for (const int threads : {1, 2, 4}) {
    exec::ThreadPool::instance().configure(threads);
    for (const auto mode :
         {core::SchedulingMode::kStatic, core::SchedulingMode::kDynamic}) {
      sim::Simulator simu;
      core::Cluster cluster(simu, nodes, core::NodeConfig{});
      cfg.scheduling = mode;
      EXPECT_EQ(apps::wordcount_prs(cluster, corpus, cfg), want)
          << what << " threads=" << threads
          << " dynamic=" << (mode == core::SchedulingMode::kDynamic);
    }
  }
}

/// The fewest pairs (distinct words) any map task of one static
/// wordcount job emits.
std::size_t fewest_pairs_per_task(const apps::Corpus& corpus_in, int nodes,
                                  const core::JobConfig& cfg) {
  auto corpus = std::make_shared<const apps::Corpus>(corpus_in);
  auto spec = apps::wordcount_spec(corpus);
  auto fewest = std::make_shared<std::size_t>(corpus->size() * 1000);
  auto mu = std::make_shared<std::mutex>();
  spec.cpu_map = [inner = spec.cpu_map, fewest, mu](
                     const core::InputSlice& s,
                     core::Emitter<std::string, long>& e) {
    inner(s, e);
    std::lock_guard<std::mutex> lock(*mu);
    *fewest = std::min(*fewest, e.size());
  };
  spec.gpu_map = spec.cpu_map;
  sim::Simulator simu;
  core::Cluster cluster(simu, nodes, core::NodeConfig{});
  core::run_job(cluster, spec, cfg, corpus->size());
  return *fewest;
}

TEST(WordcountOracle, NastyWhitespaceMatchesSerialAtAnyThreadCount) {
  apps::Corpus corpus = nasty_corpus();
  // NUL and high bytes are not whitespace: they stay inside words.
  static constexpr char kBinary[] = "nul\0inside \xff\xfe bytes";
  corpus.emplace_back(kBinary, sizeof(kBinary) - 1);
  expect_prs_matches_serial(corpus, "nasty whitespace");
}

TEST(WordcountOracle, LongWordsMatchSerialAtAnyThreadCount) {
  expect_prs_matches_serial(long_word_corpus(), "long words");
}

TEST(WordcountOracle, ManyDistinctWordsPerBlockMatchSerialAtAnyThreadCount) {
  // One node, CPU only, one block per core: blocks big enough that every
  // map task counts more distinct words than the count table's initial
  // 1024 slots, so each one grows its table.
  const apps::Corpus corpus = many_distinct_corpus();
  core::JobConfig cfg;
  cfg.use_gpu = false;
  cfg.cpu_block_multiplier = 1;
  ASSERT_GT(fewest_pairs_per_task(corpus, 1, cfg), 1024u);
  expect_prs_matches_serial(corpus, "many distinct words", 1, cfg);
}

// -- The map path against the oracle on multi-lane pools ---------------------

TEST(WordcountShuffle, PerLaneAndReducePathsAgreeOnNastyWhitespace) {
  PoolGuard guard;
  exec::ThreadPool::instance().configure(4);
  auto corpus = std::make_shared<const apps::Corpus>(nasty_corpus());
  const auto serial = apps::wordcount_serial(*corpus);

  auto spec = apps::wordcount_spec(corpus);
  core::Emitter<std::string, long> em;
  spec.cpu_map(core::InputSlice{0, corpus->size()}, em);
  std::map<std::string, long> out;
  for (const auto& [w, c] : em.pairs()) out[w] += c;
  EXPECT_EQ(out, serial);
}

TEST(WordcountShuffle, RandomCorporaAgreeAcrossPathsAndThreadCounts) {
  PoolGuard guard;
  auto& pool = exec::ThreadPool::instance();
  Rng rng(5);
  auto corpus = std::make_shared<const apps::Corpus>(
      apps::generate_corpus(rng, 500, 10, 300));
  const auto serial = apps::wordcount_serial(*corpus);
  // One pair per distinct word, emitted in key order.
  const std::vector<std::pair<std::string, long>> want(serial.begin(),
                                                       serial.end());

  for (int threads : {1, 3, 6}) {
    pool.configure(threads);
    auto spec = apps::wordcount_spec(corpus);
    core::Emitter<std::string, long> em;
    spec.cpu_map(core::InputSlice{0, corpus->size()}, em);
    ASSERT_EQ(em.pairs(), want) << "threads=" << threads;
  }
}

}  // namespace
