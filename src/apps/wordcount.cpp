#include "apps/wordcount.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain of the cost-model scan: a line is a few dozen bytes.
constexpr std::size_t kMeasureGrain = 4096;

void count_line(const std::string& line, std::map<std::string, long>& acc) {
  std::istringstream ss(line);
  std::string word;
  while (ss >> word) acc[word]++;
}

/// Exactly the C-locale whitespace set `istream >> std::string` skips, so
/// the map's tokenizer agrees word for word with wordcount_serial.
bool is_word_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' || ch == '\f' ||
         ch == '\r';
}

/// One map task's word counts: open addressing with linear probing, keys
/// viewing the corpus lines (no string per word). One table per thread,
/// reused by every task that thread runs; drain() empties it.
class WordTable {
 public:
  static constexpr std::size_t kInitialSlots = 1024;

  WordTable() : slots_(kInitialSlots) {}

  void count_line(const std::string& line) {
    const char* p = line.data();
    const char* const end = p + line.size();
    while (p < end) {
      while (p < end && is_word_space(*p)) ++p;
      const char* const w = p;
      while (p < end && !is_word_space(*p)) ++p;
      if (p > w) add(std::string_view(w, static_cast<std::size_t>(p - w)));
    }
  }

  /// Emits every (word, count) in ascending key order — std::map's order —
  /// and leaves the table empty for the thread's next task.
  void drain(core::Emitter<std::string, long>& e) {
    std::sort(used_.begin(), used_.end(), [this](std::size_t a, std::size_t b) {
      return slots_[a].key < slots_[b].key;
    });
    e.reserve(used_.size());
    for (const std::size_t i : used_) {
      e.emit(std::string(slots_[i].key), slots_[i].count);
      slots_[i] = Slot{};
    }
    used_.clear();
  }

 private:
  struct Slot {
    std::string_view key;
    std::size_t hash = 0;
    long count = 0;  // 0 = empty
  };

  void add(std::string_view word) {
    // Grow before inserting so the probe always finds a free slot; 70%
    // load keeps the probe runs short.
    if ((used_.size() + 1) * 10 >= slots_.size() * 7) grow();
    const std::size_t h = std::hash<std::string_view>{}(word);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.count == 0) {
        s = Slot{word, h, 1};
        used_.push_back(i);
        return;
      }
      if (s.hash == h && s.key == word) {
        ++s.count;
        return;
      }
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t& u : used_) {
      std::size_t i = old[u].hash & mask;
      while (slots_[i].count != 0) i = (i + 1) & mask;
      slots_[i] = old[u];
      u = i;
    }
  }

  std::vector<Slot> slots_;       // power-of-two size
  std::vector<std::size_t> used_;  // occupied slot indices
};

/// Shape of the actual corpus, measured once per spec so the Eq (8) cost
/// model reflects the data really passed in — not a hardcoded
/// 10-words-per-line assumption. Counts are integers, so the parallel scan
/// is exact; its space/tab word split is the cost model's, not the map's.
struct CorpusShape {
  double line_bytes = 0.0;  // average bytes per line
  double word_len = 0.0;    // average bytes per word
};

struct ShapeCounts {
  std::size_t bytes = 0, words = 0, word_bytes = 0;
};

CorpusShape measure(const Corpus& corpus) {
  const ShapeCounts c = exec::parallel_reduce(
      0, corpus.size(), kMeasureGrain, ShapeCounts{},
      [&corpus](std::size_t b, std::size_t en, ShapeCounts acc) {
        for (std::size_t i = b; i < en; ++i) {
          const std::string& line = corpus[i];
          acc.bytes += line.size();
          bool in_word = false;
          for (const char ch : line) {
            const bool space = ch == ' ' || ch == '\t';
            if (!space) {
              ++acc.word_bytes;
              if (!in_word) ++acc.words;
            }
            in_word = !space;
          }
        }
        return acc;
      },
      [](ShapeCounts a, const ShapeCounts& b) {
        a.bytes += b.bytes;
        a.words += b.words;
        a.word_bytes += b.word_bytes;
        return a;
      });
  CorpusShape s;
  const auto n = static_cast<double>(corpus.size());
  s.line_bytes = n > 0 ? static_cast<double>(c.bytes) / n : 0.0;
  s.word_len = c.words > 0 ? static_cast<double>(c.word_bytes) /
                                 static_cast<double>(c.words)
                           : 0.0;
  return s;
}

}  // namespace

Corpus generate_corpus(Rng& rng, std::size_t lines,
                       std::size_t words_per_line, std::size_t vocabulary) {
  PRS_REQUIRE(vocabulary >= 1, "vocabulary must be non-empty");
  // Every line is reserved here, on the calling thread, to the longest it
  // can get: "word" plus the largest id's digits per word, a space between
  // words. The pool workers then only write bytes, and no line regrows.
  const std::size_t id_len = std::to_string(vocabulary - 1).size();
  Corpus corpus(lines);
  if (words_per_line > 0) {
    for (auto& line : corpus) line.reserve(words_per_line * (5 + id_len) - 1);
  }
  const std::size_t grain = std::max<std::size_t>(
      1, exec::kGenerateDraws / std::max<std::size_t>(1, words_per_line));
  exec::parallel_generate(
      rng, lines, grain, words_per_line,
      [&](std::size_t b, std::size_t e, Rng& r) {
        char buf[24];
        for (std::size_t i = b; i < e; ++i) {
          std::string& line = corpus[i];
          line.clear();  // overwrite: a chunk can run twice
          for (std::size_t w = 0; w < words_per_line; ++w) {
            // Zipf-ish: squared uniform biases toward low word ids.
            const double u = r.uniform();
            const auto id = static_cast<std::size_t>(
                u * u * static_cast<double>(vocabulary));
            if (w > 0) line += ' ';
            line += "word";
            line.append(buf, std::to_chars(buf, buf + sizeof buf,
                                           std::min(id, vocabulary - 1))
                                 .ptr);
          }
        }
      });
  return corpus;
}

std::map<std::string, long> wordcount_serial(const Corpus& corpus) {
  std::map<std::string, long> counts;
  for (const auto& line : corpus) count_line(line, counts);
  return counts;
}

WordCountSpec wordcount_spec(std::shared_ptr<const Corpus> corpus) {
  PRS_REQUIRE(corpus != nullptr, "spec needs a corpus");
  WordCountSpec spec;
  spec.name = "wordcount";
  spec.cpu_map = [corpus](const core::InputSlice& s,
                          core::Emitter<std::string, long>& e) {
    // One task counts its lines on one thread (the runner runs a job's
    // tasks side by side); the combiner inside the mapper leaves one pair
    // per distinct word.
    thread_local WordTable table;
    for (std::size_t i = s.begin; i < s.end; ++i) {
      table.count_line((*corpus)[i]);
    }
    table.drain(e);
  };
  spec.gpu_map = spec.cpu_map;
  spec.modeled_map = [](const core::InputSlice&,
                        core::Emitter<std::string, long>& e) {
    e.emit("word0", 0);
  };
  spec.combine = [](const long& a, const long& b) { return a + b; };

  // Cost model: scanning text is ~1 flop (comparison) per byte — the
  // leftmost point of the paper's Figure 4 intensity spectrum. Byte counts
  // come from the corpus actually passed in, so Eq (8) splits stay honest
  // for corpora with other line lengths than the default generator's.
  const CorpusShape shape = measure(*corpus);
  spec.cpu_flops_per_item = shape.line_bytes;
  spec.gpu_flops_per_item = shape.line_bytes;
  spec.ai_cpu = 0.125;  // Figure 4: word count AI ~ 1/8 flop per byte
  spec.ai_gpu = 0.125;
  spec.gpu_data_cached = false;
  spec.item_bytes = shape.line_bytes;
  spec.pair_bytes = shape.word_len + 8.0;  // word text + count
  spec.reduce_flops_per_pair = 1.0;
  spec.efficiency = core::calib::kWordCount;
  return spec;
}

std::map<std::string, long> wordcount_prs(core::Cluster& cluster,
                                          std::shared_ptr<const Corpus> corpus,
                                          const core::JobConfig& cfg,
                                          core::JobStats* stats_out) {
  PRS_REQUIRE(corpus && !corpus->empty(), "corpus must be non-empty");
  WordCountSpec spec = wordcount_spec(corpus);
  auto res = core::run_job(cluster, spec, cfg, corpus->size());
  if (stats_out != nullptr) *stats_out = res.stats;
  return std::move(res.output);
}

}  // namespace prs::apps
