// A self-contained description of one PRS job, as submitted to the
// multi-tenant job server (and, equivalently, as run single-shot by
// prs_run). The wire form is a flat list of key=value tokens — the same
// keys the SUBMIT verb of the line protocol carries — so one parser serves
// the socket front-end, the tests and the CLI client.
#pragma once

#include <cstdint>
#include <map>
#include <string>

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
  std::size_t rows = 35000;      // GEMV/DGEMM M; stencil grid rows
  std::size_t cols = 10000;      // GEMV/DGEMM N; FFT signal size; grid cols
  bool functional = false;
  bool gpu_only = false;
  bool cpu_only = false;
  double cpu_fraction = -1.0;
  std::uint64_t seed = 42;
  int pipeline_depth = 1;        // pipelining depth (static policies)

  // Fault injection / checkpointing ride unchanged under the service.
  std::string fault_spec;
  std::uint64_t fault_seed = 1;
  int checkpoint_every = 0;
  std::string checkpoint_dir;
  bool resume = false;

  // Service resource request.
  std::uint64_t gpu_mem_bytes = 0;  // per-vGPU memory quota (0 = full card)

  /// vGPU slots this job needs: one per simulated card of its cluster.
  int vgpus_needed() const { return cpu_only ? 0 : nodes * gpus; }

  /// Node hardware implied by testbed/gpus (the service overrides the GPU
  /// spec with the leased vGPU spec).
  core::NodeConfig node_config() const;

  /// Job configuration implied by the mode/backend fields. The caller
  /// builds the policy (core::make_policy(policy)) and sets cfg.policy.
  core::JobConfig job_config() const;

  /// Validates field combinations; throws prs::InvalidArgument with a
  /// deterministic message on the first violation.
  void validate() const;

  /// Wire form: space-separated key=value tokens (only non-default fields
  /// are emitted, deterministic key order).
  std::string to_tokens() const;
};

/// Parses `key` `value` into `spec`. Returns false (setting `error`) on an
/// unknown key or malformed value; used by both the SUBMIT verb and the
/// CLI client.
bool apply_job_spec_field(JobSpec& spec, const std::string& key,
                          const std::string& value, std::string& error);

/// Parses a full key=value map (e.g. a SUBMIT payload). Throws
/// prs::InvalidArgument naming the offending key.
JobSpec parse_job_spec(const std::map<std::string, std::string>& fields);

/// Inverse of JobSpec::to_tokens(): parses the space-separated key=value
/// wire form back into a spec (the journal stores specs in this form).
/// Throws prs::InvalidArgument on a malformed token or unknown key.
JobSpec parse_job_spec_tokens(const std::string& tokens);

}  // namespace prs::svc
