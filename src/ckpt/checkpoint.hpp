#pragma once
// Versioned, checksummed snapshots for the iterative driver.
//
// Wire layout (all little-endian; see DESIGN.md "Checkpoint/restart"):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//   0       4     magic "PRSC" (bytes 50 52 53 43)
//   4       4     format version (currently 1)
//   8       8     payload length in bytes
//   16      8     FNV-1a-64 checksum of the payload
//   24      n     payload (codec-encoded Snapshot fields)
//
// The checksum covers the payload only, so truncation is caught by the
// length field and corruption by the checksum; a version the reader does not
// understand fails loudly (no silent migration). Every decode failure is a
// prs::Error — malformed snapshots must never be undefined behaviour.

#include <cstdint>
#include <functional>
#include <string>

#include "ckpt/codec.hpp"
#include "ckpt/store.hpp"
#include "core/job.hpp"
#include "linalg/matrix.hpp"

namespace prs::ckpt {

/// Current snapshot format version.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Magic bytes at the head of every snapshot ("PRSC" little-endian).
inline constexpr std::uint32_t kSnapshotMagic = 0x43535250u;

/// Everything the iterative driver needs to resume a run: where it was, the
/// application state, the accumulated statistics, the schedule-policy state
/// and the seeds that make the replayed trajectory deterministic.
struct Snapshot {
  std::string app;           // StateCodec tag; guards cross-app resume
  std::int32_t next_iteration = 0;  // first iteration still to run
  std::int32_t iterations_done = 0; // distinct iterations completed once
  bool finished = false;     // run converged/completed; nothing left to do
  std::uint64_t run_seed = 0;    // app data/init seed
  std::uint64_t fault_seed = 0;  // fault-injector seed
  std::string policy_name;   // SchedulePolicy::name() at snapshot time
  std::string policy_state;  // policy save_state() blob (may be empty)
  core::JobStats stats;      // accumulated over iterations_done iterations
  std::string app_state;     // StateCodec::encode blob
};

/// Serialize a snapshot to the framed wire format above.
std::string encode_snapshot(const Snapshot& snap);

/// Parse and validate a snapshot blob. Throws prs::Error on bad magic,
/// unsupported version, length mismatch, checksum mismatch or a truncated /
/// malformed payload.
Snapshot decode_snapshot(const std::string& blob);

/// Application hook pair that serializes the iteration-carried state (e.g.
/// the C-means centers). `tag` names the application and is verified on
/// restore so a snapshot cannot be decoded into the wrong app's state.
struct StateCodec {
  std::string tag;
  std::function<void(Writer&)> encode;
  std::function<void(Reader&)> decode;
};

/// Snapshots retained per prefix.
inline constexpr int kSnapshotsKept = 2;

/// Virtual-clock cost model for snapshot IO (write and restore), charged to
/// the driver: latency + bytes / bandwidth.
inline constexpr double kSnapshotBandwidth = 1.5e9;  // bytes per virtual s
inline constexpr double kSnapshotLatency = 200e-6;   // virtual s per op

/// Checkpoint policy for core::run_iterative. A node crash during an
/// iteration discards that iteration and halts the run with prs::Error,
/// keeping the snapshots: a fresh process resumes with recover=true, which
/// is byte-identical to the fault-free run (same cluster shape on restart).
struct CheckpointConfig {
  CheckpointStore* store = nullptr;  // required; not owned
  int interval = 1;                  // snapshot every N completed iterations
  bool recover = true;               // resume from latest snapshot at start
  std::string prefix = "ckpt";       // key namespace inside the store

  // Seeds recorded in every snapshot and verified on restore: resuming a
  // run under different seeds would silently diverge from the original
  // trajectory.
  std::uint64_t run_seed = 0;
  std::uint64_t fault_seed = 0;
};

/// Matrix helpers shared by the app StateCodecs: dims + row-major payload.
void put_matrix(Writer& w, const linalg::MatrixD& m);
/// Reads a matrix written by put_matrix, replacing `m` (dims come from the
/// snapshot; callers validate against expected shapes).
void get_matrix(Reader& r, linalg::MatrixD& m);
/// fnv1a64(bytes put_matrix writes, seed) without the copy: the 16-byte
/// header is hashed, then the matrix bytes in place with that hash as the
/// seed (byte-wise through a Writer on big-endian hosts).
std::uint64_t fnv1a64_matrix(const linalg::MatrixD& m,
                             std::uint64_t seed = kFnvOffsetBasis);

}  // namespace prs::ckpt
