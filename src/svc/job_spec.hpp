// A self-contained description of one PRS job, as submitted to the
// multi-tenant job server and as run single-shot by prs_run. The wire form
// is a flat list of key=value tokens — the same keys the SUBMIT verb of the
// line protocol carries, and (with '-' for '_') prs_run's job flags — so
// one parser and one validator serve the socket front-end, the journal, the
// tests and the CLI.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

#include "core/cluster.hpp"
#include "core/job.hpp"

namespace prs::svc {

struct JobSpec {
  std::string app = "cmeans";    // cmeans | kmeans | gmm | gemv | dgemm |
                                 // fft | wordcount | stencil
  std::string testbed = "delta"; // delta | bigred2 | phi
  std::string policy = "static"; // static | dynamic | adaptive
  int nodes = 4;
  int gpus = 1;                  // simulated cards per node (vGPUs, under
                                 // the service)
  std::size_t points = 200000;   // items / points / signals / lines
  std::size_t dims = 100;        // dims; also DGEMM's K and stencil's rows
  int clusters = 10;
  int iterations = 10;
  std::size_t rows = 35000;      // GEMV/DGEMM M
  std::size_t cols = 10000;      // GEMV/DGEMM N; FFT signal size; grid cols
  bool functional = false;
  bool gpu_only = false;
  bool cpu_only = false;
  double cpu_fraction = -1.0;    // CPU share p in [0,1]; negative: Eq (8)
  std::uint64_t seed = 42;
  int pipeline_depth = 1;        // pipelining depth (static policies)

  // Fault injection / checkpointing ride unchanged under the service.
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  int checkpoint_every = 1;      // snapshot interval in iterations
  std::string checkpoint_dir;    // empty: no checkpointing
  bool resume = false;

  // Service resource request.
  std::uint64_t gpu_mem_bytes = 0;  // per-vGPU memory quota (0 = full card)

  bool operator==(const JobSpec&) const = default;

  /// vGPU slots this job needs: one per simulated card of its cluster.
  int vgpus_needed() const { return cpu_only ? 0 : nodes * gpus; }

  /// Node hardware implied by testbed/gpus (the service overrides the GPU
  /// spec with the leased vGPU spec).
  core::NodeConfig node_config() const;

  /// Job configuration implied by the mode/backend fields. The caller
  /// builds the policy (core::make_policy(policy)) and sets cfg.policy.
  core::JobConfig job_config() const;

  /// Validates field values and combinations; throws prs::InvalidArgument
  /// with a deterministic message on the first violation.
  void validate() const;

  /// Wire form: space-separated key=value tokens (only non-default fields
  /// are emitted, in visit_job_spec_fields order).
  std::string to_tokens() const;
};

/// Visits the spec's fields pairwise in wire order: fn(key, a.field,
/// b.field). This is the one list of the wire keys: to_tokens() emits them
/// in this order (the journal stores that form) and apply_job_spec_field()
/// parses them.
template <typename SpecA, typename SpecB, typename Fn>
void visit_job_spec_fields2(SpecA& a, SpecB& b, Fn&& fn) {
  fn("app", a.app, b.app);
  fn("testbed", a.testbed, b.testbed);
  fn("policy", a.policy, b.policy);
  fn("nodes", a.nodes, b.nodes);
  fn("gpus", a.gpus, b.gpus);
  fn("points", a.points, b.points);
  fn("dims", a.dims, b.dims);
  fn("clusters", a.clusters, b.clusters);
  fn("iterations", a.iterations, b.iterations);
  fn("rows", a.rows, b.rows);
  fn("cols", a.cols, b.cols);
  fn("functional", a.functional, b.functional);
  fn("gpu_only", a.gpu_only, b.gpu_only);
  fn("cpu_only", a.cpu_only, b.cpu_only);
  fn("cpu_fraction", a.cpu_fraction, b.cpu_fraction);
  fn("seed", a.seed, b.seed);
  fn("pipeline_depth", a.pipeline_depth, b.pipeline_depth);
  fn("fault_spec", a.fault_spec, b.fault_spec);
  fn("fault_seed", a.fault_seed, b.fault_seed);
  fn("checkpoint_every", a.checkpoint_every, b.checkpoint_every);
  fn("checkpoint_dir", a.checkpoint_dir, b.checkpoint_dir);
  fn("resume", a.resume, b.resume);
  fn("gpu_mem_bytes", a.gpu_mem_bytes, b.gpu_mem_bytes);
}

/// Single-spec flavour of the visitor: fn(key, field).
template <typename Spec, typename Fn>
void visit_job_spec_fields(Spec& s, Fn&& fn) {
  visit_job_spec_fields2(
      s, s, [&fn](const char* key, auto& f, auto&) { fn(key, f); });
}

/// Parses one wire value: a string verbatim, a bool as 1/0/true/false, a
/// number in full (no trailing bytes). prs_run's own numeric flags follow
/// the same rules. Returns false on a malformed value.
template <typename T>
bool parse_wire_value(const std::string& v, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = v;
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (v != "1" && v != "true" && v != "0" && v != "false") return false;
    out = v == "1" || v == "true";
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    try {
      std::size_t pos = 0;
      out = std::stod(v, &pos);
      return pos == v.size();
    } catch (...) {
      return false;
    }
  } else {
    const char* e = v.data() + v.size();
    auto [p, ec] = std::from_chars(v.data(), e, out);
    return ec == std::errc() && p == e;
  }
}

/// Outcome of apply_job_spec_field.
enum class FieldParse { kOk, kUnknownKey, kBadValue };

/// Parses `value` into the field named `key`: a wire key, or one of the
/// aliases lines/signals (points) and components (clusters). Each caller
/// words its own error from the outcome.
FieldParse apply_job_spec_field(JobSpec& spec, const std::string& key,
                                const std::string& value);

/// Parses a full key=value map (e.g. a SUBMIT payload). Throws
/// prs::InvalidArgument naming the offending key.
JobSpec parse_job_spec(const std::map<std::string, std::string>& fields);

/// Inverse of JobSpec::to_tokens(): parses the space-separated key=value
/// wire form back into a spec (the journal stores specs in this form).
/// Throws prs::InvalidArgument on a malformed token or unknown key.
JobSpec parse_job_spec_tokens(const std::string& tokens);

}  // namespace prs::svc
