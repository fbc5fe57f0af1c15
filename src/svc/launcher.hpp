// The one per-app dispatch shared by prs_run (single-shot) and the job
// server (multi-tenant): given a JobSpec and a cluster, run the application
// and return its statistics plus a canonical result digest. Because both
// front-ends execute jobs through this exact code path, a job submitted to
// prs_serve produces byte-identical digests to the same job run single-shot
// — the acceptance property of the service layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/store.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/job.hpp"
#include "fault/injector.hpp"
#include "svc/job_spec.hpp"

namespace prs::svc {

struct LaunchOutcome {
  core::JobStats stats;
  /// 16-hex-digit FNV-1a digest of the job's result state: the application
  /// result (centers/objective, counts, vectors, …) in functional mode, or
  /// the JobStats fields in modeled mode. Identical specs (and seeds)
  /// produce identical digests on any front-end.
  std::string digest;
  /// Human-readable result lines ("converged in …", "… state digest: …")
  /// in the historical prs_run format; prs_run prints them verbatim.
  std::vector<std::string> lines;
};

/// What a spec's fault_spec and checkpoint_dir ask one run for: the fault
/// injector and the file-backed snapshot store with its CheckpointConfig.
/// prs_run and the job server build it the same way.
struct JobFixtures {
  std::unique_ptr<fault::FaultInjector> injector;    // null: no fault_spec
  std::unique_ptr<ckpt::FileCheckpointStore> store;  // null: no checkpoints
  ckpt::CheckpointConfig checkpoint;

  /// The CheckpointConfig to hand run_job_spec, or null.
  const ckpt::CheckpointConfig* checkpoint_config() const {
    return store != nullptr ? &checkpoint : nullptr;
  }
};

/// Builds `spec`'s fixtures on `sim` and attaches the injector to `cfg`.
JobFixtures make_job_fixtures(const JobSpec& spec, sim::Simulator& sim,
                              core::JobConfig& cfg);

/// Runs `spec` on `cluster` (already built with spec.node_config() — or a
/// vGPU-shaped variant of it) and returns the outcome. `cfg` must come from
/// spec.job_config() plus any front-end additions (policy instance, fault
/// injector, stage gate). `checkpoint` may be null.
LaunchOutcome run_job_spec(const JobSpec& spec, core::Cluster& cluster,
                           const core::NodeConfig& node,
                           const core::JobConfig& cfg, Rng& rng,
                           const ckpt::CheckpointConfig* checkpoint);

}  // namespace prs::svc
