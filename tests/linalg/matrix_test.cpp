#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace effitest::linalg {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  const Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructWithFill) {
  const Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, InitializerListRaggedThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), LinalgError);
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, Diagonal) {
  const std::vector<double> d{2.0, 5.0};
  const Matrix m = Matrix::diagonal(d);
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(static_cast<void>(m.at(2, 0)), LinalgError);
  EXPECT_THROW(static_cast<void>(m.at(0, 2)), LinalgError);
  EXPECT_NO_THROW(static_cast<void>(m.at(1, 1)));
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_THROW(static_cast<void>(m.row(5)), LinalgError);
}

TEST(Matrix, Column) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> c = m.column(1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 4.0);
}

TEST(Matrix, Select) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const std::vector<std::size_t> rows{2, 0};
  const std::vector<std::size_t> cols{1};
  const Matrix s = m.select(rows, cols);
  ASSERT_EQ(s.rows(), 2u);
  ASSERT_EQ(s.cols(), 1u);
  EXPECT_DOUBLE_EQ(s(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 2.0);
}

TEST(Matrix, Transposed) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyIdentityIsNoop) {
  const Matrix a{{1, 2}, {3, 4}};
  EXPECT_TRUE((a * Matrix::identity(2)).approx_equal(a));
  EXPECT_TRUE((Matrix::identity(2) * a).approx_equal(a));
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, LinalgError);
}

TEST(Matrix, MatVec) {
  const Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{1.0, 1.0};
  const std::vector<double> out = a * v;
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(Matrix, ApproxEqualTolerance) {
  const Matrix a{{1.0}};
  const Matrix b{{1.0 + 1e-12}};
  EXPECT_TRUE(a.approx_equal(b, 1e-9));
  EXPECT_FALSE(a.approx_equal(b, 1e-15));
}

TEST(Matrix, SymmetrizeAndAsymmetry) {
  Matrix m{{1.0, 2.0}, {4.0, 1.0}};
  EXPECT_DOUBLE_EQ(m.max_asymmetry(), 2.0);
  m.symmetrize();
  EXPECT_DOUBLE_EQ(m(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.max_asymmetry(), 0.0);
}

TEST(Matrix, StreamOutput) {
  const Matrix m{{1, 2}, {3, 4}};
  std::ostringstream os;
  os << m;
  EXPECT_NE(os.str().find('1'), std::string::npos);
  EXPECT_NE(os.str().find('4'), std::string::npos);
}

TEST(VectorOps, Dot) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  const std::vector<double> c{1.0};
  EXPECT_THROW(static_cast<void>(dot(a, c)), LinalgError);
}

TEST(VectorOps, Axpy) {
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
}

TEST(VectorOps, AddSubtract) {
  const std::vector<double> a{5.0, 7.0};
  const std::vector<double> b{2.0, 3.0};
  EXPECT_DOUBLE_EQ(subtract(a, b)[1], 4.0);
  EXPECT_DOUBLE_EQ(add(a, b)[0], 7.0);
}

}  // namespace
}  // namespace effitest::linalg
