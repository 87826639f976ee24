#ifndef ELSA_TENSOR_OPS_H_
#define ELSA_TENSOR_OPS_H_

/**
 * @file
 * Dense linear-algebra operations on elsa::Matrix.
 *
 * These are the reference (software, FP32) kernels: the self-attention
 * definition from Section II-A of the paper, plus the Kronecker-product
 * machinery from Section III-C used by the fast hash computation.
 */

#include <cstddef>
#include <vector>

#include "tensor/matrix.h"

namespace elsa {

/** C = A * B. Shapes must agree (A.cols == B.rows). */
Matrix matmul(const Matrix& a, const Matrix& b);

/** Kronecker product A (x) B; see Section III-C of the paper. */
Matrix kronecker(const Matrix& a, const Matrix& b);

/** Dot product of two length-n float spans. */
double dot(const float* x, const float* y, std::size_t n);

/** Euclidean (L2) norm of a length-n float span. */
double l2Norm(const float* x, std::size_t n);

/**
 * L2 norm of every row of m in one pass (the batched key-norm
 * computation of the preprocessing phase). Element r equals
 * l2Norm(m.row(r), m.cols()) exactly.
 */
std::vector<double> l2NormRows(const Matrix& m);

/** In-place softmax over a row vector. Numerically stabilized. */
void softmaxInPlace(std::vector<double>& row);

/** Max absolute elementwise difference between two same-shaped matrices. */
double maxAbsDiff(const Matrix& a, const Matrix& b);

/** Frobenius norm of (a - b). */
double frobeniusDiff(const Matrix& a, const Matrix& b);

/** Frobenius norm of a. */
double frobeniusNorm(const Matrix& a);

} // namespace elsa

#endif // ELSA_TENSOR_OPS_H_
