// Unit + property tests for the BLAS-subset kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace prs::linalg {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  MatrixD m(3, 4, 1.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_DOUBLE_EQ(m(2, 3), 1.5);
  m(1, 2) = -7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -7.0);
  EXPECT_THROW(m(3, 0), InvalidArgument);
  EXPECT_THROW(m(0, 4), InvalidArgument);
}

TEST(Matrix, RowsAreContiguous) {
  MatrixD m(2, 3);
  for (std::size_t c = 0; c < 3; ++c) m(1, c) = static_cast<double>(c);
  const double* r = m.row(1);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
  EXPECT_THROW(m.row(2), InvalidArgument);
}

TEST(Matrix, EqualityIsElementwise) {
  MatrixD a(2, 2, 1.0), b(2, 2, 1.0);
  EXPECT_EQ(a, b);
  b(0, 0) = 2.0;
  EXPECT_NE(a, b);
}

TEST(Blas, AxpyAndDot) {
  std::vector<double> x{1, 2, 3}, y{10, 20, 30};
  axpy(2.0, std::span<const double>(x), std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
  EXPECT_DOUBLE_EQ(dot(std::span<const double>(x), std::span<const double>(x)),
                   14.0);
  std::vector<double> bad{1.0};
  EXPECT_THROW(
      dot(std::span<const double>(x), std::span<const double>(bad)),
      InvalidArgument);
}

TEST(Blas, Nrm2AndDistance) {
  std::vector<double> a{3, 4}, b{0, 0};
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(a)), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(std::span<const double>(a),
                                    std::span<const double>(b)),
                   25.0);
}

TEST(Blas, Nrm2SurvivesOverflowProneInputs) {
  // Naive sum-of-squares overflows to inf at 1e200 (1e400 > DBL_MAX); the
  // dnrm2-style scaled accumulation must return the exact norm instead.
  std::vector<double> big{3e200, 4e200};
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(big)), 5e200);
  std::vector<double> same{1e200, 1e200};
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(same)),
                   std::sqrt(2.0) * 1e200);
}

TEST(Blas, Nrm2SurvivesUnderflowProneInputs) {
  // Naive squaring underflows 1e-200 to 0 (1e-400 < DBL_MIN) and loses the
  // tiny component entirely; scaling keeps it.
  std::vector<double> tiny{3e-200, 4e-200};
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(tiny)), 5e-200);
  std::vector<double> mixed{1e-200, 0.0, -1e-200};
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(mixed)),
                   std::sqrt(2.0) * 1e-200);
  std::vector<double> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(zeros)), 0.0);
}

TEST(Blas, GemvAgainstHandComputedValues) {
  MatrixD a(2, 3);
  // [1 2 3; 4 5 6] * [1 1 1]^T = [6, 15]^T
  double v = 1;
  for (auto& e : a.storage()) e = v++;
  std::vector<double> x{1, 1, 1}, y{100, 100};
  gemv(1.0, a, std::span<const double>(x), 0.0, std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  // With alpha/beta: y = 2*A*x + 1*y
  gemv(2.0, a, std::span<const double>(x), 1.0, std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 18.0);
  EXPECT_DOUBLE_EQ(y[1], 45.0);
}

TEST(Blas, GemvShapeChecks) {
  MatrixD a(2, 3);
  std::vector<double> x(2), y(2);
  EXPECT_THROW(
      gemv(1.0, a, std::span<const double>(x), 0.0, std::span<double>(y)),
      InvalidArgument);
}

TEST(Blas, GemmAgainstHandComputedValues) {
  MatrixD a(2, 2), b(2, 2), c(2, 2, 0.0);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  gemm(1.0, a, b, 0.0, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Blas, FlopCountHelpers) {
  EXPECT_DOUBLE_EQ(gemv_flops(100, 50), 10000.0);
  EXPECT_DOUBLE_EQ(gemm_flops(10, 20, 30), 12000.0);
}

// Property: blocked gemm writes the bytes of naive gemm on random matrices,
// whole and split into two row ranges at `split` (clamped to m).
struct GemmCase {
  std::size_t m, n, k, split;
};

// Names the case in its test ID and in GetParam(), e.g.
// "m33_n193_k7_split17", so the ID follows the values, not the raw bytes.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << "m" << c.m << "_n" << c.n << "_k" << c.k << "_split" << c.split;
}

class GemmEquivalence : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmEquivalence, BlockedMatchesNaive) {
  const auto p = GetParam();
  Rng rng(p.m * 1000 + p.n * 100 + p.k);
  MatrixD a(p.m, p.k), b(p.k, p.n);
  for (auto& v : a.storage()) v = rng.uniform(-1, 1);
  for (auto& v : b.storage()) v = rng.uniform(-1, 1);
  MatrixD c1(p.m, p.n, 0.5), c2(p.m, p.n, 0.5), c3(p.m, p.n, 0.5);
  gemm(1.3, a, b, 0.7, c1);
  gemm_blocked(1.3, a, b, 0.7, c2);
  const std::size_t split = std::min(p.split, p.m);
  gemm_blocked_rows(1.3, a, b, 0.7, c3, 0, split);
  gemm_blocked_rows(1.3, a, b, 0.7, c3, split, p.m);
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(c1.data(), c3.data(), c1.size() * sizeof(double)), 0);
}

// Shapes around the SIMD tiles (4 / 8 rows, 8 / 24 columns) and the
// 32 x 192 pool chunks, K = 0 (C = beta * C) and K = 1 included.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalence,
    ::testing::Values(GemmCase{1, 1, 1, 4}, GemmCase{5, 7, 3, 2},
                      GemmCase{16, 16, 16, 8}, GemmCase{33, 17, 29, 8},
                      GemmCase{64, 64, 64, 64}, GemmCase{10, 100, 1, 16},
                      GemmCase{9, 25, 0, 3}, GemmCase{31, 191, 5, 30},
                      GemmCase{33, 193, 7, 17}, GemmCase{65, 385, 2, 31},
                      GemmCase{207, 200, 13, 100}),
    ::testing::PrintToStringParamName());

// gemm_blocked_rows over row ranges that cut its chunks and tiles writes
// the bytes of plain gemm at any pool size, and leaves the other rows
// alone.
TEST(Blas, BlockedRowsMatchTheWholeMatrixCall) {
  Rng rng(47);
  MatrixD a(150, 37), b(37, 290);
  for (auto& v : a.storage()) v = rng.uniform(-1, 1);
  for (auto& v : b.storage()) v = rng.uniform(-1, 1);
  MatrixD want(150, 290, 0.25);
  gemm(1.3, a, b, 0.7, want);
  for (const int threads : {1, 2, 4}) {
    exec::ThreadPool::instance().configure(threads);
    MatrixD whole(150, 290, 0.25);
    gemm_blocked(1.3, a, b, 0.7, whole);
    EXPECT_EQ(std::memcmp(whole.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << threads << " threads";
    MatrixD pieces(150, 290, 0.25);
    for (const auto& [r0, r1] : {std::pair<std::size_t, std::size_t>{0, 1},
                                {1, 7}, {7, 70}, {70, 70}, {70, 103},
                                {103, 150}}) {
      gemm_blocked_rows(1.3, a, b, 0.7, pieces, r0, r1);
    }
    EXPECT_EQ(std::memcmp(pieces.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << threads << " threads";

    MatrixD part(150, 290, 0.25);
    const MatrixD untouched(1, 290, 0.25);
    gemm_blocked_rows(1.3, a, b, 0.7, part, 41, 60);
    for (std::size_t r = 0; r < part.rows(); ++r) {
      const double* row = r >= 41 && r < 60 ? want.row(r) : untouched.row(0);
      EXPECT_EQ(std::memcmp(part.row(r), row, 290 * sizeof(double)), 0)
          << "row " << r << ", " << threads << " threads";
    }
  }
  exec::ThreadPool::instance().configure(0);
  MatrixD part(150, 290, 0.25);
  EXPECT_THROW(gemm_blocked_rows(1.0, a, b, 0.0, part, 60, 40),
               InvalidArgument);
  EXPECT_THROW(gemm_blocked_rows(1.0, a, b, 0.0, part, 0, 151),
               InvalidArgument);
}

// Property: gemv is a linear operator.
TEST(Blas, GemvLinearity) {
  Rng rng(31);
  MatrixD a(8, 6);
  for (auto& v : a.storage()) v = rng.uniform(-1, 1);
  std::vector<double> x1(6), x2(6), xsum(6);
  for (std::size_t i = 0; i < 6; ++i) {
    x1[i] = rng.uniform(-1, 1);
    x2[i] = rng.uniform(-1, 1);
    xsum[i] = x1[i] + x2[i];
  }
  std::vector<double> y1(8, 0.0), y2(8, 0.0), ysum(8, 0.0);
  gemv(1.0, a, std::span<const double>(x1), 0.0, std::span<double>(y1));
  gemv(1.0, a, std::span<const double>(x2), 0.0, std::span<double>(y2));
  gemv(1.0, a, std::span<const double>(xsum), 0.0, std::span<double>(ysum));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(ysum[i], y1[i] + y2[i], 1e-12);
  }
}

TEST(Blas, TransposeRoundTrips) {
  Rng rng(77);
  MatrixD a(5, 9);
  for (auto& v : a.storage()) v = rng.uniform(-1, 1);
  const MatrixD t = transpose(a);
  EXPECT_EQ(t.rows(), 9u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(transpose(t), a);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_DOUBLE_EQ(t(c, r), a(r, c));
    }
  }
}

}  // namespace
}  // namespace prs::linalg
