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

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_THROW(static_cast<void>(m.row(5)), LinalgError);
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

TEST(Matrix, ApproxEqualTolerance) {
  const Matrix a{{1.0}};
  const Matrix b{{1.0 + 1e-12}};
  EXPECT_TRUE(a.approx_equal(b, 1e-9));
  EXPECT_FALSE(a.approx_equal(b, 1e-15));
}

TEST(Matrix, Symmetrize) {
  Matrix m{{1.0, 2.0}, {4.0, 1.0}};
  m.symmetrize();
  EXPECT_DOUBLE_EQ(m(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, StreamOutput) {
  const Matrix m{{1, 2}, {3, 4}};
  std::ostringstream os;
  os << m;
  EXPECT_NE(os.str().find('1'), std::string::npos);
  EXPECT_NE(os.str().find('4'), std::string::npos);
}

}  // namespace
}  // namespace effitest::linalg
