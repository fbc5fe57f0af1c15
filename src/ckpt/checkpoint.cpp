#include "ckpt/checkpoint.hpp"

#include <bit>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"

namespace prs::ckpt {

namespace {
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

void put_stats(Writer& w, const core::JobStats& stats) {
  // Field count first so a reader built against a different JobStats shape
  // fails loudly instead of slurping misaligned bytes.
  std::uint64_t count = 0;
  core::visit_stats_fields(stats, [&count](const char*, auto&) { ++count; });
  w.u64(count);
  core::visit_stats_fields(stats, [&w](const char*, auto& field) {
    using F = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_floating_point_v<F>) {
      w.f64(field);
    } else {
      w.u64(static_cast<std::uint64_t>(field));
    }
  });
}

core::JobStats get_stats(Reader& r) {
  core::JobStats stats;
  std::uint64_t expect = 0;
  core::visit_stats_fields(stats, [&expect](const char*, auto&) { ++expect; });
  const std::uint64_t count = r.u64();
  PRS_REQUIRE(count == expect,
              "ckpt: snapshot stats have " + std::to_string(count) +
                  " fields, this build expects " + std::to_string(expect));
  core::visit_stats_fields(stats, [&r](const char*, auto& field) {
    using F = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_floating_point_v<F>) {
      field = r.f64();
    } else {
      field = static_cast<F>(r.u64());
    }
  });
  return stats;
}
}  // namespace

std::string encode_snapshot(const Snapshot& snap) {
  Writer payload;
  payload.str(snap.app);
  payload.i32(snap.next_iteration);
  payload.i32(snap.iterations_done);
  payload.u8(snap.finished ? 1 : 0);
  payload.u64(snap.run_seed);
  payload.u64(snap.fault_seed);
  payload.str(snap.policy_name);
  payload.str(snap.policy_state);
  put_stats(payload, snap.stats);
  payload.str(snap.app_state);
  const std::string body = payload.take();

  Writer framed;
  framed.u32(kSnapshotMagic);
  framed.u32(kSnapshotVersion);
  framed.u64(body.size());
  framed.u64(fnv1a64(body));
  std::string out = framed.take();
  out += body;
  return out;
}

Snapshot decode_snapshot(const std::string& blob) {
  PRS_REQUIRE(blob.size() >= kHeaderBytes,
              "ckpt: snapshot too short to hold a header (" +
                  std::to_string(blob.size()) + " bytes)");
  Reader header(std::string_view(blob).substr(0, kHeaderBytes));
  const std::uint32_t magic = header.u32();
  PRS_REQUIRE(magic == kSnapshotMagic,
              "ckpt: bad snapshot magic (not a PRS checkpoint)");
  const std::uint32_t version = header.u32();
  PRS_REQUIRE(version == kSnapshotVersion,
              "ckpt: unsupported snapshot version " + std::to_string(version) +
                  " (this build reads version " +
                  std::to_string(kSnapshotVersion) +
                  "); no migration path — re-run from scratch");
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  PRS_REQUIRE(payload_len == blob.size() - kHeaderBytes,
              "ckpt: snapshot length mismatch (header says " +
                  std::to_string(payload_len) + " payload bytes, file has " +
                  std::to_string(blob.size() - kHeaderBytes) + ")");
  const std::string_view body = std::string_view(blob).substr(kHeaderBytes);
  PRS_REQUIRE(fnv1a64(body) == checksum,
              "ckpt: snapshot checksum mismatch (corrupt file)");

  Reader r(body);
  Snapshot snap;
  snap.app = r.str();
  snap.next_iteration = r.i32();
  snap.iterations_done = r.i32();
  snap.finished = r.u8() != 0;
  snap.run_seed = r.u64();
  snap.fault_seed = r.u64();
  snap.policy_name = r.str();
  snap.policy_state = r.str();
  snap.stats = get_stats(r);
  snap.app_state = r.str();
  PRS_REQUIRE(r.done(), "ckpt: trailing bytes after snapshot payload");
  PRS_REQUIRE(snap.next_iteration >= 0 && snap.iterations_done >= 0,
              "ckpt: snapshot holds negative iteration indices");
  return snap;
}

void put_matrix(Writer& w, const linalg::MatrixD& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.f64s(m.data(), m.size());
}

std::uint64_t fnv1a64_matrix(const linalg::MatrixD& m, std::uint64_t seed) {
  if constexpr (std::endian::native == std::endian::little) {
    Writer header;
    header.u64(m.rows());
    header.u64(m.cols());
    const std::string_view body(reinterpret_cast<const char*>(m.data()),
                                m.size() * sizeof(double));
    return fnv1a64(body, fnv1a64(header.bytes(), seed));
  } else {
    Writer w;
    put_matrix(w, m);
    return fnv1a64(w.bytes(), seed);
  }
}

void get_matrix(Reader& r, linalg::MatrixD& m) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  PRS_REQUIRE(rows < (1u << 20) && cols < (1u << 20),
              "ckpt: implausible matrix dimensions in snapshot");
  // Both dimensions are below 2^20, so the product cannot overflow; check
  // it against the payload before allocating anything.
  PRS_REQUIRE(rows * cols <= r.remaining() / sizeof(double),
              "ckpt: matrix dimensions exceed the snapshot payload");
  linalg::MatrixD out(rows, cols);
  r.f64s(out.data(), out.size());
  m = std::move(out);
}

}  // namespace prs::ckpt
