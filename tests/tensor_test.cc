/**
 * @file
 * Unit tests for the dense matrix library: shapes, matmul identities,
 * Kronecker products, softmax, and norms.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace elsa {
namespace {

Matrix
makeMatrix(std::size_t r, std::size_t c, std::initializer_list<float> v)
{
    return Matrix(r, c, std::vector<float>(v));
}

TEST(MatrixTest, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_EQ(m.size(), 0u);
}

TEST(MatrixTest, ZeroInitialized)
{
    Matrix m(3, 4);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_EQ(m.at(i, j), 0.0f);
        }
    }
}

TEST(MatrixTest, DataConstructorChecksSize)
{
    EXPECT_THROW(Matrix(2, 2, {1.0f, 2.0f}), Error);
}

TEST(MatrixTest, RowMajorLayout)
{
    const Matrix m = makeMatrix(2, 3, {1, 2, 3, 4, 5, 6});
    EXPECT_EQ(m.at(0, 0), 1.0f);
    EXPECT_EQ(m.at(0, 2), 3.0f);
    EXPECT_EQ(m.at(1, 0), 4.0f);
    EXPECT_EQ(m.row(1)[2], 6.0f);
}

TEST(MatrixTest, AtBoundsChecked)
{
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), Error);
    EXPECT_THROW(m.at(0, 2), Error);
}

TEST(MatrixTest, FillAndEquality)
{
    Matrix a(2, 2);
    Matrix b(2, 2);
    a.fill(3.0f);
    b.fill(3.0f);
    EXPECT_TRUE(a == b);
    b.at(1, 1) = 4.0f;
    EXPECT_FALSE(a == b);
}

TEST(MatrixTest, FillGaussianIsDeterministic)
{
    Rng r1(5);
    Rng r2(5);
    Matrix a(4, 4);
    Matrix b(4, 4);
    a.fillGaussian(r1);
    b.fillGaussian(r2);
    EXPECT_TRUE(a == b);
}

TEST(OpsTest, MatmulIdentity)
{
    const Matrix a = makeMatrix(2, 2, {1, 2, 3, 4});
    const Matrix eye = makeMatrix(2, 2, {1, 0, 0, 1});
    EXPECT_TRUE(matmul(a, eye) == a);
    EXPECT_TRUE(matmul(eye, a) == a);
}

TEST(OpsTest, MatmulKnownProduct)
{
    const Matrix a = makeMatrix(2, 3, {1, 2, 3, 4, 5, 6});
    const Matrix b = makeMatrix(3, 2, {7, 8, 9, 10, 11, 12});
    const Matrix c = matmul(a, b);
    EXPECT_EQ(c.rows(), 2u);
    EXPECT_EQ(c.cols(), 2u);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsTest, MatmulShapeMismatchThrows)
{
    EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), Error);
}

TEST(OpsTest, KroneckerShapeAndValues)
{
    const Matrix a = makeMatrix(2, 2, {1, 2, 3, 4});
    const Matrix b = makeMatrix(2, 2, {0, 5, 6, 7});
    const Matrix k = kronecker(a, b);
    ASSERT_EQ(k.rows(), 4u);
    ASSERT_EQ(k.cols(), 4u);
    // Block (i, j) of the result is a(i, j) * B.
    EXPECT_FLOAT_EQ(k.at(0, 1), 1.0f * 5.0f);
    EXPECT_FLOAT_EQ(k.at(1, 0), 1.0f * 6.0f);
    EXPECT_FLOAT_EQ(k.at(2, 3), 4.0f * 5.0f);
    EXPECT_FLOAT_EQ(k.at(3, 3), 4.0f * 7.0f);
    EXPECT_FLOAT_EQ(k.at(2, 0), 3.0f * 0.0f);
    EXPECT_FLOAT_EQ(k.at(3, 1), 3.0f * 7.0f);
}

TEST(OpsTest, KroneckerMixedProductProperty)
{
    // (A (x) B)(x (x) y) = (A x) (x) (B y) for vectors x, y.
    Rng rng(21);
    Matrix a(3, 3);
    Matrix b(2, 2);
    a.fillGaussian(rng);
    b.fillGaussian(rng);
    Matrix x(3, 1);
    Matrix y(2, 1);
    x.fillGaussian(rng);
    y.fillGaussian(rng);
    const Matrix lhs = matmul(kronecker(a, b), kronecker(x, y));
    const Matrix rhs = kronecker(matmul(a, x), matmul(b, y));
    EXPECT_LT(maxAbsDiff(lhs, rhs), 1e-4);
}

TEST(OpsTest, DotAndNorm)
{
    const std::vector<float> x = {3.0f, 4.0f};
    EXPECT_DOUBLE_EQ(dot(x.data(), x.data(), 2), 25.0);
    EXPECT_DOUBLE_EQ(l2Norm(x.data(), 2), 5.0);
}

TEST(OpsTest, SoftmaxSumsToOne)
{
    std::vector<double> row = {1.0, 2.0, 3.0, 4.0};
    softmaxInPlace(row);
    double sum = 0.0;
    for (const double v : row) {
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Monotone in the input.
    EXPECT_LT(row[0], row[1]);
    EXPECT_LT(row[2], row[3]);
}

TEST(OpsTest, SoftmaxNumericallyStableForLargeValues)
{
    std::vector<double> row = {1000.0, 1000.0, 999.0};
    softmaxInPlace(row);
    EXPECT_NEAR(row[0], row[1], 1e-12);
    EXPECT_GT(row[0], row[2]);
    EXPECT_FALSE(std::isnan(row[0]));
}

TEST(OpsTest, SoftmaxUniformForEqualScores)
{
    std::vector<double> row(8, 2.5);
    softmaxInPlace(row);
    for (const double v : row) {
        EXPECT_NEAR(v, 0.125, 1e-12);
    }
}

TEST(OpsTest, SoftmaxOfEmptyThrows)
{
    std::vector<double> row;
    EXPECT_THROW(softmaxInPlace(row), Error);
}

TEST(OpsTest, FrobeniusDiffOfEqualIsZero)
{
    Rng rng(33);
    Matrix a(4, 4);
    a.fillGaussian(rng);
    EXPECT_DOUBLE_EQ(frobeniusDiff(a, a), 0.0);
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, a), 0.0);
}

TEST(OpsTest, FrobeniusNormKnownValue)
{
    const Matrix m = makeMatrix(1, 2, {3, 4});
    EXPECT_DOUBLE_EQ(frobeniusNorm(m), 5.0);
}

} // namespace
} // namespace elsa
