// Unit tests for la/: dense matrix ops and the sparse Cholesky factor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "la/sparse_cholesky.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace la = reclaim::la;

namespace {

la::Matrix random_matrix(std::size_t n, reclaim::util::Rng& rng) {
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-2.0, 2.0);
  return m;
}

la::Vector random_vector(std::size_t n, reclaim::util::Rng& rng) {
  la::Vector v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace

TEST(Matrix, IdentityMultiply) {
  const auto eye = la::Matrix::identity(4);
  const la::Vector x{1.0, -2.0, 3.0, 0.5};
  const auto y = eye.multiply(la::Vector(x));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Matrix, MultiplyKnownValues) {
  la::Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const auto y = a.multiply(la::Vector{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const auto z = a.multiply_transposed(la::Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Matrix, DimensionMismatchThrows) {
  la::Matrix a(2, 3);
  EXPECT_THROW((void)a.multiply(la::Vector{1.0, 2.0}), reclaim::InvalidArgument);
  EXPECT_THROW((void)a.multiply_transposed(la::Vector{1.0, 2.0, 3.0}),
               reclaim::InvalidArgument);
}

TEST(Matrix, MatrixMatrixMultiplyAgainstTranspose) {
  reclaim::util::Rng rng(5);
  const auto a = random_matrix(6, rng);
  const auto at = a.transposed();
  const auto prod = a.multiply(at);
  // (A A^T) is symmetric.
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_NEAR(prod(r, c), prod(c, r), 1e-12);
}

TEST(VectorOps, DotNormAxpy) {
  la::Vector a{1.0, 2.0, 2.0};
  la::Vector b{2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(la::dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(la::norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(la::norm_inf(b), 2.0);
  la::axpy(2.0, b, a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  EXPECT_DOUBLE_EQ(a[2], 4.0);
  la::scale(a, 0.5);
  EXPECT_DOUBLE_EQ(a[0], 2.5);
}

namespace {

using Pattern = std::vector<std::pair<std::size_t, std::size_t>>;

/// Random diagonally dominant (hence SPD) matrix on `pattern`: assembles
/// it into `chol` and returns its dense copy for residual checks.
la::Matrix assemble_dominant(la::SparseCholesky& chol, const Pattern& pattern,
                             reclaim::util::Rng& rng) {
  const std::size_t n = chol.size();
  la::Matrix dense(n, n);
  for (const auto& [i, j] : pattern) {
    const double v = rng.uniform(-1.0, 1.0);
    dense(i, j) += v;
    dense(j, i) += v;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += std::abs(dense(i, j));
    dense(i, i) = row + rng.uniform(0.5, 2.0);
  }
  chol.clear();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      if (dense(i, j) != 0.0) chol.values()[chol.slot(i, j)] = dense(i, j);
  return dense;
}

/// max_i |(H x - b)_i| after solving H x = b through the sparse factor.
double solve_residual(la::SparseCholesky& chol, const la::Matrix& dense,
                      reclaim::util::Rng& rng) {
  const la::Vector b = random_vector(chol.size(), rng);
  la::Vector x = b;
  chol.solve(x);
  const la::Vector hx = dense.multiply(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    worst = std::max(worst, std::abs(hx[i] - b[i]));
  return worst;
}

}  // namespace

TEST(SparseCholesky, SolvesKnownSystem) {
  const Pattern pattern{{0, 1}};
  la::SparseCholesky chol(2, pattern);
  chol.values()[chol.slot(0, 0)] = 4.0;
  chol.values()[chol.slot(1, 0)] = 2.0;
  chol.values()[chol.slot(1, 1)] = 3.0;
  EXPECT_EQ(chol.slot(0, 1), chol.slot(1, 0));
  chol.factor();
  la::Vector x{2.0, 3.0};
  chol.solve(x);
  // Solution of [[4,2],[2,3]] x = [2,3]: x = [0, 1].
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SparseCholesky, RandomSparsePatternsResidualsSmall) {
  reclaim::util::Rng rng(31);
  for (std::size_t n : {3u, 8u, 25u, 60u, 150u}) {
    for (double density : {0.05, 0.2}) {
      Pattern pattern;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
          if (rng.uniform(0.0, 1.0) < density) pattern.emplace_back(i, j);
      la::SparseCholesky chol(n, pattern);
      // Two matrices on one analysis: the numeric phase is reusable.
      for (int round = 0; round < 2; ++round) {
        const la::Matrix dense = assemble_dominant(chol, pattern, rng);
        chol.factor();
        EXPECT_LT(solve_residual(chol, dense, rng), 1e-10)
            << "n=" << n << " density=" << density << " round=" << round;
      }
    }
  }
}

TEST(SparseCholesky, DiagonalOnlyPattern) {
  reclaim::util::Rng rng(32);
  la::SparseCholesky chol(40, Pattern{});
  EXPECT_EQ(chol.factor_nonzeros(), 40u);
  const la::Matrix dense = assemble_dominant(chol, Pattern{}, rng);
  chol.factor();
  EXPECT_LT(solve_residual(chol, dense, rng), 1e-12);
}

TEST(SparseCholesky, DenseCliquePattern) {
  reclaim::util::Rng rng(33);
  const std::size_t n = 30;
  Pattern pattern;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) pattern.emplace_back(i, j);  // both triangles, duplicated
  la::SparseCholesky chol(n, pattern);
  EXPECT_EQ(chol.factor_nonzeros(), n * (n + 1) / 2);
  const la::Matrix dense = assemble_dominant(chol, pattern, rng);
  chol.factor();
  EXPECT_LT(solve_residual(chol, dense, rng), 1e-10);
}

TEST(SparseCholesky, MinimumDegreeOrderAvoidsArrowFill) {
  // Variable 0 couples to every other one. Eliminated first it would fill
  // the whole matrix; minimum degree eliminates the leaves first instead.
  reclaim::util::Rng rng(34);
  const std::size_t n = 50;
  Pattern pattern;
  for (std::size_t i = 1; i < n; ++i) pattern.emplace_back(0, i);
  la::SparseCholesky chol(n, pattern);
  EXPECT_EQ(chol.factor_nonzeros(), 2 * n - 1);
  const la::Matrix dense = assemble_dominant(chol, pattern, rng);
  chol.factor();
  EXPECT_LT(solve_residual(chol, dense, rng), 1e-10);
}

TEST(SparseCholesky, RejectsIndefiniteWithoutJitterAndLiftsWithIt) {
  const Pattern pattern{{0, 1}};
  la::SparseCholesky chol(2, pattern);
  const auto assemble = [&] {
    chol.clear();
    chol.values()[chol.slot(0, 0)] = 1.0;
    chol.values()[chol.slot(0, 1)] = 2.0;
    chol.values()[chol.slot(1, 1)] = 1.0;  // eigenvalues 3 and -1
  };
  assemble();
  EXPECT_THROW(chol.factor(), reclaim::NumericalError);
  assemble();
  EXPECT_NO_THROW(chol.factor(1e-8));
  la::Vector x{1.0, 1.0};
  chol.solve(x);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(SparseCholesky, RejectsEntriesOutsideThePattern) {
  const Pattern pattern{{0, 1}};
  EXPECT_THROW(la::SparseCholesky(2, Pattern{{0, 2}}),
               reclaim::InvalidArgument);
  const la::SparseCholesky chol(3, pattern);
  EXPECT_THROW((void)chol.slot(0, 2), reclaim::InvalidArgument);
  EXPECT_THROW((void)chol.slot(3, 3), reclaim::InvalidArgument);
}
