// The benchmark's workloads. Each runs entirely in this process
// through public PRS entry points and returns raw samples; run.py turns
// them into the reported metrics and checks the pinned digests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t input_seed = 1;
  double seconds = 10.0;  // measured time budget of the run
  bool trace = false;     // per-layer run: spans on, ceilings measured
  bool smoke = false;     // tiny inputs, for the harness's own tests
  bool pin = false;       // reference job(s) only: digest + virtual time
  int threads = 1;        // host threads of the all-threads jobs
  std::string tmp_dir;    // scratch directory for the service probe
};

struct Result {
  /// Digest and virtual seconds of the reference job(s); pinned per seed.
  std::string digest;
  double virtual_s = 0.0;
  /// Jobs attempted, and those that failed, were rejected, or disagreed
  /// with the reference digest or virtual time.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end raw samples by metric, plus single-valued end-to-end
  /// metrics.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> scalars;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;
};

/// Runs `opt.workload`. Throws std::exception on a usage or runtime error.
Result run_workload(const Options& opt, SpanRecorder& rec);

}  // namespace perfbench
