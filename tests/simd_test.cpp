// SIMD kernel layer tests (DESIGN.md §4j).
//
// The load-bearing property is the determinism contract: every kernel
// must produce BIT-IDENTICAL results at scalar, AVX2 and AVX-512 — these
// tests compare raw bytes, not tolerances. On hosts without AVX-512 (or
// AVX2) the corresponding sweeps skip; CI runs the scalar and AVX2 legs
// explicitly via PRS_SIMD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "roofline/analytic_scheduler.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "simd/scalar_ref.hpp"
#include "svc/job_spec.hpp"
#include "svc/launcher.hpp"

namespace prs {
namespace {

/// Deterministic fill that exercises varied magnitudes without RNG state.
double synth(std::size_t i, double lo = -4.0) {
  const double t = static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  return lo + 9.0 * t + 1e-3 * static_cast<double>(i % 7);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  if (simd::level_supported(simd::Level::kAvx2)) {
    out.push_back(simd::Level::kAvx2);
  }
  if (simd::level_supported(simd::Level::kAvx512)) {
    out.push_back(simd::Level::kAvx512);
  }
  return out;
}

/// Restores dispatch state around every test so the suite order and the
/// ambient PRS_SIMD of a CI leg never leak between cases.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::clear_level_override(); }
};

// -- dispatch ----------------------------------------------------------------

TEST_F(SimdTest, ParseLevelNamesAndAuto) {
  EXPECT_EQ(simd::parse_level("scalar"), simd::Level::kScalar);
  EXPECT_EQ(simd::parse_level("avx2"), simd::Level::kAvx2);
  EXPECT_EQ(simd::parse_level("avx512"), simd::Level::kAvx512);
  EXPECT_EQ(simd::parse_level("auto"), simd::detected_level());
  EXPECT_THROW(simd::parse_level("sse2"), InvalidArgument);
  EXPECT_THROW(simd::parse_level(""), InvalidArgument);
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
}

TEST_F(SimdTest, ScalarAlwaysSupportedAndOrdered) {
  EXPECT_TRUE(simd::level_supported(simd::Level::kScalar));
  // A CPU supporting level L supports every lower level.
  if (simd::level_supported(simd::Level::kAvx512)) {
    EXPECT_TRUE(simd::level_supported(simd::Level::kAvx2));
  }
}

TEST_F(SimdTest, OverrideWinsAndClears) {
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(&simd::active_kernels(),
            &simd::kernels_for(simd::Level::kScalar));
  simd::clear_level_override();
  // "auto" via the string overload also clears.
  simd::set_level("scalar");
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  simd::set_level("auto");
  EXPECT_EQ(simd::active_level(), simd::active_level());  // no throw
}

TEST_F(SimdTest, UnsupportedLevelThrows) {
  if (!simd::level_supported(simd::Level::kAvx512)) {
    EXPECT_THROW(simd::set_level(simd::Level::kAvx512), InvalidArgument);
    EXPECT_THROW(simd::set_level("avx512"), InvalidArgument);
  } else {
    GTEST_SKIP() << "host supports every compiled level";
  }
}

TEST_F(SimdTest, MeasureHostSpeedupIsOneAtScalarAndClamped) {
  simd::set_level(simd::Level::kScalar);
  EXPECT_DOUBLE_EQ(simd::measure_host_speedup(), 1.0);
  simd::clear_level_override();
  const double s = simd::measure_host_speedup();
  EXPECT_GE(s, 1.0);
  EXPECT_LE(s, 16.0);
}

// -- bitwise equivalence sweep -----------------------------------------------

const std::size_t kDims[] = {1, 2,  3,  4,  5,  6,  7,  8,  9,
                             10, 11, 12, 13, 14, 15, 16, 17, 31,
                             64, 100, 127};
const std::size_t kCenters[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17};

TEST_F(SimdTest, DistanceAndQuadBlocksBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t m : kCenters) {
      for (const std::size_t d : kDims) {
        std::vector<double> x(d), ct(m * d), var_t(m * d);
        for (std::size_t i = 0; i < d; ++i) x[i] = synth(i);
        for (std::size_t i = 0; i < m * d; ++i) {
          ct[i] = synth(i + 13);
          var_t[i] = 0.25 + std::fabs(synth(i + 101));  // positive variances
        }
        std::vector<double> got(m), want(m);
        kn.dist2_block(x.data(), ct.data(), m, d, got.data());
        simd::ref::dist2_block(x.data(), ct.data(), m, d, want.data());
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_TRUE(bits_equal(got[j], want[j]))
              << "dist2 level=" << simd::level_name(level) << " m=" << m
              << " d=" << d << " j=" << j;
        }
        kn.quad_block(x.data(), ct.data(), var_t.data(), m, d, got.data());
        simd::ref::quad_block(x.data(), ct.data(), var_t.data(), m, d,
                              want.data());
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_TRUE(bits_equal(got[j], want[j]))
              << "quad level=" << simd::level_name(level) << " m=" << m
              << " d=" << d << " j=" << j;
        }
      }
    }
  }
}

TEST_F(SimdTest, ElementwiseKernelsBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t n : kDims) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = synth(i + 7);
      const double w = 1.75;

      std::vector<double> got(n), want(n);
      for (std::size_t i = 0; i < n; ++i) got[i] = want[i] = synth(i + 31);
      kn.axpy_acc(got.data(), x.data(), w, n);
      simd::ref::axpy_acc(want.data(), x.data(), w, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bits_equal(got[i], want[i])) << "axpy_acc n=" << n;
      }

      kn.add_acc(got.data(), x.data(), n);
      simd::ref::add_acc(want.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bits_equal(got[i], want[i])) << "add_acc n=" << n;
      }

      std::vector<double> g2(n), w2(n);
      for (std::size_t i = 0; i < n; ++i) g2[i] = w2[i] = synth(i + 53);
      kn.moments_acc(got.data(), g2.data(), x.data(), 0.37, n);
      simd::ref::moments_acc(want.data(), w2.data(), x.data(), 0.37, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bits_equal(got[i], want[i])) << "moments p1 n=" << n;
        ASSERT_TRUE(bits_equal(g2[i], w2[i])) << "moments p2 n=" << n;
      }
    }
  }
}

TEST_F(SimdTest, RowDotsBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t rows : kCenters) {
      for (const std::size_t d : kDims) {
        std::vector<double> a(rows * d), x(d);
        for (std::size_t i = 0; i < a.size(); ++i) a[i] = synth(i + 3);
        for (std::size_t i = 0; i < d; ++i) x[i] = synth(i + 11);
        std::vector<double> got(rows), want(rows);
        kn.row_dots(a.data(), d, rows, d, x.data(), got.data());
        simd::ref::row_dots(a.data(), d, rows, d, x.data(), want.data());
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_TRUE(bits_equal(got[r], want[r]))
              << "row_dots level=" << simd::level_name(level)
              << " rows=" << rows << " d=" << d << " r=" << r;
        }
      }
    }
  }
}

TEST_F(SimdTest, StencilRowBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t cols : {2ul, 3ul, 4ul, 9ul, 16ul, 17ul, 33ul,
                                   64ul, 101ul}) {
      std::vector<double> mid(cols), up(cols), down(cols);
      for (std::size_t i = 0; i < cols; ++i) {
        mid[i] = synth(i);
        up[i] = synth(i + 211);
        down[i] = synth(i + 409);
      }
      std::vector<double> got(cols, 0.0), want(cols, 0.0);
      const double gm =
          kn.stencil_row(got.data(), mid.data(), up.data(), down.data(), cols);
      const double wm = simd::ref::stencil_row(want.data(), mid.data(),
                                               up.data(), down.data(), cols);
      ASSERT_TRUE(bits_equal(gm, wm)) << "stencil max cols=" << cols;
      for (std::size_t c = 1; c + 1 < cols; ++c) {
        ASSERT_TRUE(bits_equal(got[c], want[c]))
            << "stencil level=" << simd::level_name(level)
            << " cols=" << cols << " c=" << c;
      }
    }
  }
}

// gemm_block against the reference: every tile shape and edge (rows
// around the 4- and 8-row tiles, columns around the 8- and 24-column
// tiles), K = 0 (c * beta only) and K = 1, padded leading dimensions, and a
// C seeded with -0.0, NaN and +-Inf. A NaN C stays NaN even at beta = 0 and
// an infinite one turns NaN there, so the c * beta step is pinned as well
// as the order of the rest. A and B stay finite: no sum ever has two NaN
// operands, whose result bits would depend on which one comes first.
TEST_F(SimdTest, GemmBlockBitIdenticalAcrossLevels) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, std::numeric_limits<double>::quiet_NaN(),
                             inf, -inf};
  struct Scalars {
    double alpha, beta;
  };
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t rows : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul,
                                   15ul, 16ul, 17ul}) {
      for (const std::size_t cols : {1ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 16ul,
                                     23ul, 24ul, 25ul, 47ul, 49ul}) {
        for (const std::size_t k : {0ul, 1ul, 2ul, 9ul}) {
          for (const Scalars sc : {Scalars{1.25, -0.75}, Scalars{1.0, 0.0}}) {
            const std::size_t lda = k + 3, ldb = cols + 5, ldc = cols + 2;
            std::vector<double> a(rows * lda), b(std::max(k, 1ul) * ldb);
            std::vector<double> got(rows * ldc);
            for (std::size_t i = 0; i < a.size(); ++i) a[i] = synth(i + 5);
            for (std::size_t i = 0; i < b.size(); ++i) b[i] = synth(i + 17);
            for (std::size_t i = 0; i < got.size(); ++i) {
              got[i] = i % 5 == 0 ? specials[(i / 5) % 4] : synth(i + 29);
            }
            std::vector<double> want = got;
            kn.gemm_block(rows, cols, k, sc.alpha, a.data(), lda, b.data(),
                          ldb, sc.beta, got.data(), ldc);
            simd::ref::gemm_block(rows, cols, k, sc.alpha, a.data(), lda,
                                  b.data(), ldb, sc.beta, want.data(), ldc);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(double)),
                      0)
                << "gemm_block level=" << simd::level_name(level)
                << " rows=" << rows << " cols=" << cols << " k=" << k
                << " alpha=" << sc.alpha << " beta=" << sc.beta;
          }
        }
      }
    }
  }
}

// -- FNV-1a span --------------------------------------------------------------

/// n random bytes from a 64-byte boundary on (base()).
struct FnvBytes {
  explicit FnvBytes(std::size_t n, std::uint64_t seed) : raw(n + 64) {
    Rng rng(seed);
    for (unsigned char& c : raw) c = static_cast<unsigned char>(rng.next());
  }
  const unsigned char* base() const {
    const auto addr = reinterpret_cast<std::uintptr_t>(raw.data());
    return raw.data() + (64 - addr % 64) % 64;
  }
  std::vector<unsigned char> raw;
};

void expect_fnv_span_matches(const simd::Kernels& kn, const unsigned char* p,
                             std::size_t n, std::uint64_t h,
                             const char* level) {
  ASSERT_EQ(kn.fnv_span(p, n, h), simd::ref::fnv_bytes(p, n, h))
      << "level=" << level << " n=" << n << " h=" << h;
}

/// Start states: low byte 0 and 0xff, and random ones.
std::vector<std::uint64_t> fnv_states(Rng& rng) {
  return {0, 0xff, 0xcbf29ce484222325ull, rng.next(), rng.next()};
}

// An integer kernel: every level must return the byte loop's exact value.
// The vector forms work in 512-byte groups of 64-byte bit-plane blocks and
// leave the rest to the byte loop, so every length up to 1200 covers zero,
// one and two groups with every tail.
TEST_F(SimdTest, FnvSpanMatchesTheByteLoopAtEveryShortLength) {
  const FnvBytes bytes(1200, 11);
  Rng rng(12);
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (std::size_t n = 0; n <= 1200; ++n) {
      for (const std::uint64_t h : fnv_states(rng)) {
        expect_fnv_span_matches(kn, bytes.base(), n, h,
                                simd::level_name(level));
      }
    }
  }
}

TEST_F(SimdTest, FnvSpanMatchesTheByteLoopAtLongAndRandomLengths) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const FnvBytes bytes(kMiB + 1, 21);
  Rng rng(22);
  std::vector<std::size_t> lengths = {4095, 4096, 4097, kMiB - 1, kMiB,
                                      kMiB + 1};
  for (int i = 0; i < 12; ++i) lengths.push_back(rng.next() % (kMiB + 1));
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t n : lengths) {
      for (const std::uint64_t h : fnv_states(rng)) {
        expect_fnv_span_matches(kn, bytes.base(), n, h,
                                simd::level_name(level));
      }
    }
  }
}

TEST_F(SimdTest, FnvSpanMatchesTheByteLoopAtUnalignedStarts) {
  const FnvBytes bytes(64 + 1500, 31);
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (std::size_t skew = 1; skew < 64; ++skew) {
      for (const std::size_t n : {511ul, 512ul, 1500ul}) {
        expect_fnv_span_matches(kn, bytes.base() + skew, n,
                                0x9e3779b97f4a7c15ull * skew,
                                simd::level_name(level));
      }
    }
  }
}

TEST_F(SimdTest, PackTransposedRoundTrips) {
  const std::size_t m = 5, d = 7;
  std::vector<double> a(m * d);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = synth(i);
  std::vector<double> t;
  simd::pack_transposed(a.data(), m, d, t);
  ASSERT_EQ(t.size(), m * d);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_TRUE(bits_equal(t[c * m + j], a[j * d + c]));
    }
  }
}

// -- linalg::nrm2 special-value contract (the satellite bugfix) --------------

TEST_F(SimdTest, Nrm2InfinityYieldsInfNotNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  // Two infinities used to hit inf/inf = NaN in the scaled update.
  std::vector<double> two_inf{inf, inf};
  EXPECT_EQ(linalg::nrm2<double>(two_inf), inf);
  std::vector<double> mixed{3.0, -inf, 2.0, inf};
  EXPECT_EQ(linalg::nrm2<double>(mixed), inf);
  std::vector<double> with_nan{inf, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(linalg::nrm2<double>(with_nan)));
  std::vector<double> zeros{0.0, -0.0};
  EXPECT_EQ(linalg::nrm2<double>(zeros), 0.0);
  // Scaling still prevents overflow/underflow for extreme finite inputs.
  std::vector<double> huge{1e200, 1e200, 1e200};
  EXPECT_NEAR(linalg::nrm2<double>(huge), std::sqrt(3.0) * 1e200,
              1e186);
  std::vector<double> tiny{1e-200, 1e-200};
  EXPECT_NEAR(linalg::nrm2<double>(tiny), std::sqrt(2.0) * 1e-200, 1e-214);
  // Equal-to-scale elements take the exact +1 branch.
  std::vector<double> equal{5.0, -5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(linalg::nrm2<double>(equal), 10.0);
}

// -- gemm_blocked: pool chunks of gemm_block tiles ---------------------------

TEST_F(SimdTest, GemmBlockedMatchesPlainGemmAtTailSizes) {
  exec::ThreadPool::instance().configure(3);
  for (const simd::Level level : supported_levels()) {
    simd::set_level(level);
    // Dims around the 32 x 192 chunks and the tiles, with odd row counts.
    for (const std::size_t n : {1ul, 31ul, 63ul, 64ul, 65ul, 97ul, 101ul,
                                191ul, 193ul}) {
      const std::size_t m = (n % 2 == 0) ? n + 1 : n;  // exercise odd rows
      const std::size_t k = (n >= 64) ? n - 1 : n + 2;
      linalg::MatrixD a(m, k), b(k, n), c1(m, n, 0.5), c2(m, n, 0.5);
      for (std::size_t i = 0; i < m * k; ++i) a.storage()[i] = synth(i);
      for (std::size_t i = 0; i < k * n; ++i) b.storage()[i] = synth(i + 9);
      linalg::gemm(1.25, a, b, 0.75, c1);
      linalg::gemm_blocked(1.25, a, b, 0.75, c2);
      for (std::size_t i = 0; i < m * n; ++i) {
        ASSERT_TRUE(bits_equal(c1.storage()[i], c2.storage()[i]))
            << "gemm_blocked level=" << simd::level_name(level)
            << " n=" << n << " elem=" << i;
      }
      // Row ranges of 1, 7, 26, 33 and 9 rows in turn cut the chunks and
      // tiles at every offset.
      linalg::MatrixD c3(m, n, 0.5);
      const std::size_t piece[] = {1, 7, 26, 33, 9};
      for (std::size_t r0 = 0, p = 0; r0 < m; ++p) {
        const std::size_t r1 = std::min(m, r0 + piece[p % 5]);
        linalg::gemm_blocked_rows(1.25, a, b, 0.75, c3, r0, r1);
        r0 = r1;
      }
      for (std::size_t i = 0; i < m * n; ++i) {
        ASSERT_TRUE(bits_equal(c1.storage()[i], c3.storage()[i]))
            << "gemm_blocked_rows level=" << simd::level_name(level)
            << " n=" << n << " elem=" << i;
      }
    }
  }
  exec::ThreadPool::instance().configure(0);
}

// -- roofline feedback (Eq (8) with a measured host speedup) -----------------

TEST_F(SimdTest, WithCpuScaleRederivesTheSplit) {
  roofline::WorkloadSplit split;
  split.cpu_rate = 10.0;
  split.gpu_rate = 90.0;
  split.cpu_fraction = 0.1;
  split.regime = roofline::SplitRegime::kBetweenRidges;
  const auto scaled = split.with_cpu_scale(3.0);
  EXPECT_DOUBLE_EQ(scaled.cpu_rate, 30.0);
  EXPECT_DOUBLE_EQ(scaled.gpu_rate, 90.0);
  EXPECT_DOUBLE_EQ(scaled.cpu_fraction, 0.25);
  EXPECT_EQ(scaled.regime, split.regime);
  EXPECT_THROW(split.with_cpu_scale(0.0), Error);
  EXPECT_THROW(split.with_cpu_scale(-1.0), Error);
  // scale 1 is the identity.
  EXPECT_DOUBLE_EQ(split.with_cpu_scale(1.0).cpu_fraction,
                   split.cpu_fraction);
}

TEST_F(SimdTest, HostSimdScaleRaisesTheCpuShare) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 1, core::NodeConfig{});
  core::StaticAnalyticPolicy policy;
  core::JobShape shape;
  shape.ai_cpu = shape.ai_gpu = 50.0;
  shape.gpu_data_cached = true;
  shape.ai_of_block = [](double) { return 50.0; };

  core::JobConfig base;
  const auto d0 = policy.node_decision(cluster, shape, base, 0);
  core::JobConfig boosted;
  boosted.host_simd_scale = 4.0;
  const auto d1 = policy.node_decision(cluster, shape, boosted, 0);
  EXPECT_GT(d1.cpu_fraction, d0.cpu_fraction);
  EXPECT_GT(d1.capability, d0.capability);
  // The exact Eq (8) value: p' = s*Fc / (s*Fc + Fg).
  const auto split = cluster.scheduler(0).workload_split(
      shape.ai_cpu, shape.ai_gpu, !shape.gpu_data_cached, 1);
  EXPECT_DOUBLE_EQ(d1.cpu_fraction,
                   split.with_cpu_scale(4.0).cpu_fraction);
}

// -- app-level digest pins ---------------------------------------------------

/// The engine_determinism_test shapes, byte-for-byte: these digests were
/// captured from the pre-SIMD runner, so they simultaneously pin
/// (a) PRS_SIMD=scalar == the old scalar arithmetic and (b) vector levels
/// == scalar (the cross-ISA determinism contract), for all eight apps.
struct AppGolden {
  const char* app;
  const char* digest;
};
constexpr AppGolden kGoldens[] = {
    {"cmeans", "de9498a2752edda5"},    {"kmeans", "d577cc8d98d6d9f2"},
    {"gmm", "703897dae037855e"},      {"gemv", "2e2da806987a60a8"},
    {"dgemm", "a6c2dd578bfdf0f3"},    {"fft", "afc039769dc48a31"},
    {"wordcount", "ff2126bc8e56f40a"}, {"stencil", "fd1284ed68020988"},
};

svc::JobSpec app_spec(const std::string& app) {
  svc::JobSpec spec;
  spec.app = app;
  spec.nodes = 3;
  spec.functional = true;
  spec.points = 400;
  spec.dims = 6;
  spec.clusters = 3;
  spec.iterations = 4;
  spec.rows = 96;
  spec.cols = 64;
  if (app == "dgemm") {
    spec.rows = 48;
    spec.cols = 40;
    spec.dims = 24;
  } else if (app == "stencil") {
    spec.dims = 40;  // grid rows
    spec.cols = 32;
    spec.iterations = 6;
  } else if (app == "fft") {
    spec.functional = false;  // modeled-only app
    spec.points = 64;
  } else if (app == "wordcount") {
    spec.points = 300;  // corpus lines
  }
  return spec;
}

std::string run_digest(const std::string& app) {
  exec::ThreadPool::instance().configure(3);
  svc::JobSpec spec = app_spec(app);
  spec.validate();
  sim::Simulator simu;
  const core::NodeConfig node = spec.node_config();
  core::Cluster cluster(simu, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  Rng rng(spec.seed);
  const svc::LaunchOutcome out =
      svc::run_job_spec(spec, cluster, node, cfg, rng, nullptr);
  EXPECT_FALSE(out.digest.empty()) << app << " produced no digest";
  return out.digest;
}

TEST_F(SimdTest, AllAppsPinnedDigestsAtEveryLevel) {
  for (const simd::Level level : supported_levels()) {
    simd::set_level(level);
    for (const AppGolden& g : kGoldens) {
      EXPECT_EQ(run_digest(g.app), g.digest)
          << g.app << " diverged at level " << simd::level_name(level);
    }
  }
}

}  // namespace
}  // namespace prs
