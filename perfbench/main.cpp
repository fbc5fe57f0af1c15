// prs_perfbench: runs one benchmark workload and prints its raw samples as
// one JSON object on stdout. perfbench/run.py builds this binary, turns the
// samples into the metrics BENCHMARK.json names and checks the pinned
// digests; run the script, not this binary, to benchmark.
//
//   prs_perfbench --workload=<name> --input-seed=<n> --seconds=<s>
//                 [--trace] [--smoke] [--pin]
//                 [--tmp-dir=<dir>] [--spans=<file.json>]
//
// The all-threads jobs use exec::ThreadPool::default_threads() threads.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "exec/thread_pool.hpp"
#include "workloads.hpp"

namespace {

void print_number(double v) { std::printf("%.17g", v); }

template <typename Map, typename Fn>
void print_object(const Map& m, Fn print_value) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": ", first ? "" : ", ", k.c_str());
    print_value(v);
    first = false;
  }
  std::printf("}");
}

void print_result(const perfbench::Options& opt,
                  const perfbench::Result& r) {
  std::printf("{\"workload\": \"%s\", \"input_seed\": %llu, \"threads\": %d, ",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.input_seed), opt.threads);
  std::printf("\"digest\": \"%s\", \"virtual_s\": ", r.digest.c_str());
  print_number(r.virtual_s);
  std::printf(", \"attempted\": %llu, \"failed\": %llu, \"samples\": ",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_object(r.samples, [](const std::vector<double>& xs) {
    std::printf("[");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_number(xs[i]);
    }
    std::printf("]");
  });
  std::printf(", \"scalars\": ");
  print_object(r.scalars, print_number);
  std::printf(", \"layers\": ");
  print_object(r.layers, print_number);
  std::printf("}\n");
}

bool take(const std::string& arg, const char* flag, std::string& value) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.threads = prs::exec::ThreadPool::default_threads();
  std::string spans_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (take(arg, "--workload", v)) {
        opt.workload = v;
      } else if (take(arg, "--input-seed", v)) {
        opt.input_seed = std::stoull(v);
      } else if (take(arg, "--seconds", v)) {
        opt.seconds = std::stod(v);
      } else if (take(arg, "--tmp-dir", v)) {
        opt.tmp_dir = v;
      } else if (take(arg, "--spans", v)) {
        spans_path = v;
      } else if (arg == "--trace") {
        opt.trace = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--pin") {
        opt.pin = true;
      } else {
        throw std::invalid_argument("unknown argument '" + arg + "'");
      }
    }
    if (opt.seconds <= 0.0) {
      throw std::invalid_argument("--seconds must be positive");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prs_perfbench: usage error: %s\n", e.what());
    return 2;
  }

  try {
    perfbench::SpanRecorder rec;
    rec.set_enabled(opt.trace);
    const perfbench::Result r = perfbench::run_workload(opt, rec);
    if (opt.trace && !spans_path.empty() && !rec.write_chrome_json(spans_path)) {
      std::fprintf(stderr, "prs_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
    print_result(opt, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prs_perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
