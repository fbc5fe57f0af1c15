// Tests for the checkpoint subsystem (prs::ckpt): the binary codec, the
// framed snapshot format (round-trip, truncation, corruption, version skew),
// the storage backends (shared contract, file persistence, prune/latest),
// JobStats field reflection (accumulate must cover every numeric field), and
// schedule-policy state serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/store.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/schedule_policy.hpp"
#include "linalg/matrix.hpp"
#include "simd/dispatch.hpp"
#include "simd/scalar_ref.hpp"

namespace prs::ckpt {
namespace {

// -- codec ------------------------------------------------------------------

TEST(CkptCodec, ScalarsRoundTripThroughTheWireFormat) {
  Writer w;
  w.u8(0);
  w.u8(255);
  w.u32(0xdeadbeefu);
  w.u64(0xfeedfacecafebeefull);
  w.i32(-1);
  w.i32(std::numeric_limits<std::int32_t>::min());
  w.i64(-42);
  w.f64(3.141592653589793);
  w.str("hello");

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 255u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0xfeedfacecafebeefull);
  EXPECT_EQ(r.i32(), -1);
  EXPECT_EQ(r.i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(CkptCodec, AwkwardDoublesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::epsilon()};
  Writer w;
  for (double v : values) w.f64(v);
  Reader r(w.bytes());
  for (double v : values) {
    // Bit equality, not value equality: NaN != NaN and -0.0 == 0.0 would
    // both hide codec bugs.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(CkptCodec, StringsWithEmbeddedNulsSurvive) {
  const std::string s("a\0b\0\0c", 6);
  Writer w;
  w.str(s);
  w.str("");
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), s);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(CkptCodec, ReaderThrowsInsteadOfReadingPastTheEnd) {
  Writer w;
  w.u32(7);
  Reader r(w.bytes());
  EXPECT_THROW(r.u64(), Error);   // 4 bytes available, 8 requested
  EXPECT_EQ(r.u32(), 7u);         // the failed read consumed nothing
  EXPECT_THROW(r.u8(), Error);    // now empty

  // A huge declared string length must not wrap the bounds check.
  Writer w2;
  w2.u64(~0ull);
  Reader r2(w2.bytes());
  EXPECT_THROW(r2.str(), Error);
}

TEST(CkptCodec, MatrixRoundTripsAndBadDimsThrow) {
  linalg::MatrixD m(3, 4, 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      m(i, j) = static_cast<double>(i * 10 + j) / 7.0;
  Writer w;
  put_matrix(w, m);
  Reader r(w.bytes());
  linalg::MatrixD back;
  get_matrix(r, back);
  EXPECT_TRUE(back == m);
  EXPECT_TRUE(r.done());

  Writer bad;
  bad.u64(1ull << 40);  // absurd row count
  bad.u64(2);
  Reader rb(bad.bytes());
  linalg::MatrixD out;
  EXPECT_THROW(get_matrix(rb, out), Error);
}

TEST(CkptCodec, BulkMatrixBodyIsTheScalarEncoding) {
  // put_matrix copies the body in bulk; the wire bytes must stay those of
  // one f64() per element, awkward values included.
  linalg::MatrixD m(2, 3, 0.0);
  const double vals[] = {-0.0, 1.0 / 3.0, 5e-324, -1e308, 42.0, 0.1};
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = vals[i];
  Writer bulk;
  put_matrix(bulk, m);
  Writer scalar;
  scalar.u64(m.rows());
  scalar.u64(m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) scalar.f64(m.data()[i]);
  EXPECT_EQ(bulk.bytes(), scalar.bytes());
}

TEST(CkptCodec, HostileMatrixHeaderThrowsBeforeAllocating) {
  // Both dimensions pass the per-dimension cap, but 50000 x 50000 doubles
  // (20 GB) cannot come from a 16-byte body: reject, don't allocate.
  Writer w;
  w.u64(50000);
  w.u64(50000);
  w.f64(1.0);
  w.f64(2.0);
  Reader r(w.bytes());
  linalg::MatrixD out;
  EXPECT_THROW(get_matrix(r, out), Error);
  EXPECT_EQ(out.size(), 0u);
}

// -- the digest ---------------------------------------------------------------

/// FNV-1a 64 byte by byte: the value fnv1a64 must return at every level.
std::uint64_t byte_loop(std::string_view bytes, std::uint64_t h) {
  return simd::ref::fnv_bytes(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(), h);
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.next());
  return s;
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out;
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::level_supported(level)) out.push_back(level);
  }
  return out;
}

/// Puts back the SIMD level a digest case changes.
struct LevelGuard {
  LevelGuard() = default;
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;
  ~LevelGuard() { simd::clear_level_override(); }
};

// Lengths around the vector kernels' 512-byte group, at journal-frame and
// cmeans-result sizes, and a 4.5 MB input, at every level.
TEST(CkptCodec, FnvMatchesTheByteLoopAtEveryLevel) {
  LevelGuard guard;
  const std::string data = random_bytes((std::size_t{9} << 19) + 3, 99);
  const std::vector<std::size_t> lengths = {
      0, 1, 57, 511, 512, 513, 8192, 65535, 65536, 65537, data.size()};
  Rng rng(5);
  const std::vector<std::uint64_t> seeds = {0, kFnvOffsetBasis, 0xff, 0x100,
                                            rng.next()};
  for (const simd::Level level : supported_levels()) {
    simd::set_level(level);
    for (const std::size_t n : lengths) {
      for (const std::uint64_t seed : seeds) {
        const std::string_view v = std::string_view(data).substr(0, n);
        ASSERT_EQ(fnv1a64(v, seed), byte_loop(v, seed))
            << "level=" << simd::level_name(level) << " n=" << n
            << " seed=" << seed;
      }
    }
  }
}

// The seed is the state: hashing a, then b seeded with a's hash, equals
// hashing a + b, wherever the split falls.
TEST(CkptCodec, FnvChainsAtAnySplit) {
  const std::string shortish = random_bytes(300, 3);
  for (std::size_t cut = 0; cut <= shortish.size(); ++cut) {
    const std::string_view v(shortish);
    ASSERT_EQ(fnv1a64(v.substr(cut), fnv1a64(v.substr(0, cut))), fnv1a64(v))
        << "cut=" << cut;
  }
  const std::string data = random_bytes(100000 + 777, 4);
  const std::string_view v(data);
  const std::uint64_t whole = fnv1a64(v, 0x100);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{511}, std::size_t{512},
        std::size_t{4096 + 7}, data.size() - 1, data.size()}) {
    EXPECT_EQ(fnv1a64(v.substr(cut), fnv1a64(v.substr(0, cut), 0x100)), whole)
        << "cut=" << cut;
  }
}

TEST(CkptCodec, MatrixDigestEqualsTheDigestOfTheWriterBytes) {
  Rng rng(8);
  const double awkward[] = {-0.0, 5e-324, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{0, 0}, {1, 1}, {3, 4}, {300, 301},
        {1100, 130}}) {
    linalg::MatrixD m(rows, cols, 0.0);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = i % 97 == 0 ? awkward[(i / 97) % 4] : rng.normal();
    }
    Writer w;
    put_matrix(w, m);
    for (const std::uint64_t seed : {kFnvOffsetBasis, std::uint64_t{0x100}}) {
      EXPECT_EQ(fnv1a64_matrix(m, seed), fnv1a64(w.bytes(), seed))
          << rows << " x " << cols << " seed=" << seed;
    }
  }
}

// -- snapshot framing -------------------------------------------------------

Snapshot sample_snapshot(Rng& rng) {
  Snapshot s;
  s.app = "cmeans";
  s.next_iteration = static_cast<std::int32_t>(rng.uniform_index(100));
  s.iterations_done = s.next_iteration;
  s.finished = rng.uniform() < 0.5;
  s.run_seed = rng.next();
  s.fault_seed = rng.next();
  s.policy_name = "adaptive";
  {
    Writer pw;
    pw.u64(1);
    pw.i32(2);
    pw.f64(rng.uniform());
    s.policy_state = pw.take();
  }
  s.stats.elapsed = rng.uniform(0.0, 100.0);
  s.stats.cpu_flops = rng.uniform(0.0, 1e12);
  s.stats.map_tasks = rng.uniform_index(1000);
  s.stats.iterations = s.iterations_done;
  {
    Writer aw;
    aw.str("app state");
    aw.f64(rng.normal());
    s.app_state = aw.take();
  }
  return s;
}

void expect_equal(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.next_iteration, b.next_iteration);
  EXPECT_EQ(a.iterations_done, b.iterations_done);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.run_seed, b.run_seed);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.policy_state, b.policy_state);
  EXPECT_EQ(a.app_state, b.app_state);
  core::visit_stats_fields2(
      a.stats, b.stats,
      [](const char* name, const auto& va, const auto& vb) {
        EXPECT_EQ(std::memcmp(&va, &vb, sizeof(va)), 0) << name;
      });
}

TEST(CkptSnapshot, RandomSnapshotsRoundTripBitExactly) {
  Rng rng(2024);
  for (int i = 0; i < 50; ++i) {
    const Snapshot s = sample_snapshot(rng);
    const std::string blob = encode_snapshot(s);
    const Snapshot back = decode_snapshot(blob);
    expect_equal(s, back);
    // Re-encoding the decoded snapshot is byte-identical: the format has
    // one canonical serialization.
    EXPECT_EQ(encode_snapshot(back), blob);
  }
}

TEST(CkptSnapshot, EveryTruncationIsRejectedWithAnError) {
  Rng rng(7);
  const std::string blob = encode_snapshot(sample_snapshot(rng));
  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_THROW(decode_snapshot(blob.substr(0, n)), Error)
        << "truncated to " << n << " of " << blob.size() << " bytes";
  }
}

TEST(CkptSnapshot, EverySingleBitFlipIsRejectedWithAnError) {
  Rng rng(11);
  const std::string blob = encode_snapshot(sample_snapshot(rng));
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = blob;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      EXPECT_THROW(decode_snapshot(bad), Error)
          << "flipped bit " << bit << " of byte " << i;
    }
  }
}

TEST(CkptSnapshot, TrailingGarbageIsRejected) {
  Rng rng(13);
  std::string blob = encode_snapshot(sample_snapshot(rng));
  blob += "extra";
  EXPECT_THROW(decode_snapshot(blob), Error);
}

TEST(CkptSnapshot, UnsupportedVersionFailsLoudly) {
  Rng rng(17);
  std::string blob = encode_snapshot(sample_snapshot(rng));
  // Patch the version field (bytes 4..7, little-endian). The checksum covers
  // the payload only, so this is exactly the "written by a newer build"
  // case, not a corruption case.
  const std::uint32_t future = kSnapshotVersion + 1;
  for (int i = 0; i < 4; ++i) {
    blob[4 + i] = static_cast<char>(future >> (8 * i));
  }
  try {
    decode_snapshot(blob);
    FAIL() << "future version decoded silently";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(CkptSnapshot, NotASnapshotIsRejected) {
  EXPECT_THROW(decode_snapshot(""), Error);
  EXPECT_THROW(decode_snapshot("short"), Error);
  EXPECT_THROW(decode_snapshot(std::string(64, '\0')), Error);
  EXPECT_THROW(decode_snapshot("this is definitely not a checkpoint file"),
               Error);
}

// -- stores -----------------------------------------------------------------

/// Contract every CheckpointStore implementation must satisfy.
void check_store_contract(CheckpointStore& store) {
  EXPECT_TRUE(store.keys().empty());
  std::string out = "sentinel";
  EXPECT_FALSE(store.get("absent", &out));
  EXPECT_EQ(out, "sentinel");  // a miss must not clobber the output

  const std::string binary("\x00\xff\x7f snapshot \x01", 14);
  store.put("b-key", "blob-b");
  store.put("a-key", binary);
  store.put("b-key", "blob-b2");  // overwrite

  EXPECT_EQ(store.keys(), (std::vector<std::string>{"a-key", "b-key"}));
  ASSERT_TRUE(store.get("a-key", &out));
  EXPECT_EQ(out, binary);
  ASSERT_TRUE(store.get("b-key", &out));
  EXPECT_EQ(out, "blob-b2");

  store.remove("a-key");
  store.remove("a-key");  // removing an absent key is a no-op
  EXPECT_EQ(store.keys(), (std::vector<std::string>{"b-key"}));
  store.remove("b-key");
  EXPECT_TRUE(store.keys().empty());
}

TEST(CkptStore, MemoryBackendSatisfiesTheContract) {
  MemoryCheckpointStore store;
  check_store_contract(store);
}

TEST(CkptStore, FileBackendSatisfiesTheContract) {
  const std::string dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_contract";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);
  check_store_contract(store);
  std::filesystem::remove_all(dir);
}

TEST(CkptStore, FileBackendPersistsAcrossInstances) {
  const std::string dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_persist";
  std::filesystem::remove_all(dir);
  {
    FileCheckpointStore store(dir);
    store.put("ckpt.00000004", "four");
  }
  {
    FileCheckpointStore store(dir);  // fresh instance, same directory
    std::string out;
    ASSERT_TRUE(store.get("ckpt.00000004", &out));
    EXPECT_EQ(out, "four");
  }
  std::filesystem::remove_all(dir);
}

TEST(CkptStore, FileBackendRejectsKeysThatEscapeTheDirectory) {
  const std::string dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_keys";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);
  EXPECT_THROW(store.put("../evil", "x"), Error);
  EXPECT_THROW(store.put("a/b", "x"), Error);
  EXPECT_THROW(store.put("", "x"), Error);
  std::filesystem::remove_all(dir);
}

TEST(CkptStore, SnapshotKeysOrderNumericallyAndLatestWins) {
  MemoryCheckpointStore store;
  EXPECT_EQ(latest_snapshot_key(store, "ckpt"), "");
  // Insert out of order, spanning a digit-count boundary.
  for (int it : {100, 2, 9, 10, 0}) {
    store.put(snapshot_key("ckpt", it), "s" + std::to_string(it));
  }
  store.put(snapshot_key("other", 999), "unrelated prefix");
  EXPECT_EQ(latest_snapshot_key(store, "ckpt"), snapshot_key("ckpt", 100));

  prune_snapshots(store, "ckpt", 2);
  EXPECT_EQ(latest_snapshot_key(store, "ckpt"), snapshot_key("ckpt", 100));
  std::string out;
  EXPECT_TRUE(store.get(snapshot_key("ckpt", 10), &out));
  EXPECT_FALSE(store.get(snapshot_key("ckpt", 9), &out));
  EXPECT_FALSE(store.get(snapshot_key("ckpt", 0), &out));
  // Other prefixes are untouched.
  EXPECT_TRUE(store.get(snapshot_key("other", 999), &out));
}

// -- JobStats reflection ----------------------------------------------------

// If this fails, a numeric field was added to JobStats without extending
// visit_stats_fields2 (core/job.hpp): accumulate(), the snapshot codec and
// the crash-recovery accounting would all silently ignore the new field.
TEST(JobStatsReflection, VisitorCoversEveryByteOfJobStats) {
  EXPECT_EQ(sizeof(core::JobStats), 176u)
      << "JobStats changed size: update visit_stats_fields2 in core/job.hpp "
         "to cover the new field, then update this size guard";
  int fields = 0;
  core::JobStats s{};
  core::visit_stats_fields(s, [&](const char*, auto& v) {
    ++fields;
    v = static_cast<std::remove_reference_t<decltype(v)>>(1);
  });
  EXPECT_EQ(fields, 23);
}

TEST(JobStatsReflection, AccumulateSumsEveryNumericField) {
  core::JobStats a{};
  core::JobStats b{};
  // Zero `a` through the visitor: iterations and job_attempts default to 1.
  core::visit_stats_fields(a, [](const char*, auto& v) {
    v = static_cast<std::remove_reference_t<decltype(v)>>(0);
  });
  // Give every field of `b` a distinct nonzero marker via the visitor, so a
  // field skipped by accumulate() shows up as an exact mismatch.
  int idx = 0;
  core::visit_stats_fields(b, [&](const char*, auto& v) {
    v = static_cast<std::remove_reference_t<decltype(v)>>(3 + 2 * idx++);
  });

  a.accumulate(b);
  a.accumulate(b);

  idx = 0;
  core::visit_stats_fields2(
      a, b, [&](const char* name, const auto& va, const auto& vb) {
        EXPECT_EQ(va, vb + vb) << "field '" << name
                               << "' not accumulated (index " << idx << ")";
        ++idx;
      });
  EXPECT_EQ(idx, 23);
}

// -- schedule-policy state --------------------------------------------------

TEST(CkptPolicyState, StatelessPoliciesWriteNothingAndAcceptNothing) {
  core::StaticAnalyticPolicy p;
  Writer w;
  p.save_state(w);
  EXPECT_EQ(w.size(), 0u);
  Reader r(w.bytes());
  p.restore_state(r);
  EXPECT_TRUE(r.done());
}

TEST(CkptPolicyState, AdaptivePolicyLearnedFractionsRoundTripBitExactly) {
  core::AdaptiveFeedbackPolicy learned(0.5);
  core::JobFeedback fb;
  fb.elapsed = 2.0;
  for (int rank = 0; rank < 3; ++rank) {
    core::NodeFeedback nf;
    nf.rank = rank;
    nf.cpu_fraction = 0.2 + 0.1 * rank;
    nf.cpu_busy = 1.0 + 0.37 * rank;
    nf.gpu_busy = 4.0 - 0.91 * rank;
    nf.cpu_cores = 12;
    nf.gpu_cards = 1;
    fb.nodes.push_back(nf);
  }
  learned.observe(fb);
  ASSERT_GE(learned.learned_fraction(0), 0.0);

  Writer w;
  learned.save_state(w);
  ASSERT_GT(w.size(), 0u);

  core::AdaptiveFeedbackPolicy fresh(0.5);
  EXPECT_LT(fresh.learned_fraction(0), 0.0);
  Reader r(w.bytes());
  fresh.restore_state(r);
  EXPECT_TRUE(r.done());
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.learned_fraction(rank)),
              std::bit_cast<std::uint64_t>(learned.learned_fraction(rank)))
        << "rank " << rank;
  }

  // Corrupt state is rejected without clobbering what was learned.
  Writer bad;
  bad.u64(2);
  bad.i32(0);
  bad.f64(1.5);  // p out of [0,1]
  Reader rb(bad.bytes());
  EXPECT_THROW(fresh.restore_state(rb), Error);
  EXPECT_EQ(fresh.learned_fraction(0), learned.learned_fraction(0));
}

}  // namespace
}  // namespace prs::ckpt
