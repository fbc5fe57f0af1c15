// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the harness, around each call it makes into a
// PRS layer (input generation, cluster construction, the app entry point,
// the result digest, server submits, ...). Nothing inside the library is
// instrumented. Every span carries a name, start and end on the steady
// clock, the id of the enclosing span on the same thread (-1 at top level)
// and the id of the job it belongs to (-1 when it belongs to none). Spans
// stay in memory and are written out once, at exit.
//
// When the recorder is disabled a Span costs one branch, so the untraced
// runs execute the same harness code as the traced one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;
  int job = -1;

  double ms() const { return (end_s - start_s) * 1e3; }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span and makes it the calling thread's current parent.
  int open(std::string_view name, int job) {
    const double t = now();
    std::lock_guard<std::mutex> lk(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::string(name), t, t, current_parent(), job});
    current_parent() = id;
    return id;
  }

  void close(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
    current_parent() = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Durations in ms of every span called `name`, in recording order.
  std::vector<double> durations_ms(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.ms());
    }
    return out;
  }

  /// Writes the spans as a Chrome trace (one complete event per span, the
  /// parent and job ids in args). Returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"job\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.job < 0 ? 0 : s.job,
                   s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                   s.job);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  static int& current_parent() {
    thread_local int parent = -1;
    return parent;
  }

  const Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when the recorder is disabled.
class Span {
 public:
  Span(SpanRecorder& rec, std::string_view name, int job = -1)
      : rec_(rec), id_(rec.enabled() ? rec.open(name, job) : -1) {}
  ~Span() {
    if (id_ >= 0) rec_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
