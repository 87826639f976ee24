#ifndef ELSA_ATTENTION_EXACT_H_
#define ELSA_ATTENTION_EXACT_H_

/**
 * @file
 * Exact self-attention (Section II-A): O = softmax(Q K^T) V.
 *
 * This is the reference implementation every approximation in the
 * repository is measured against, and also the functional model of the
 * "no approximation" (ELSA-base) datapath when given quantized inputs.
 *
 * The exact reference, threshold learning and the candidate-restricted
 * approximation all compute their rows with one kernel,
 * attentionRow(). The exact reference streams its rows to an optional
 * visitor rather than keeping the n x n score matrix.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/matrix.h"

namespace elsa {

/** Inputs of one self-attention operation: n x d each. */
struct AttentionInput
{
    Matrix query;
    Matrix key;
    Matrix value;

    /** Number of entities n. */
    std::size_t n() const { return query.rows(); }

    /** Embedding dimension d. */
    std::size_t d() const { return query.cols(); }

    /** Validate that all three matrices agree in shape. */
    void validate() const;
};

/**
 * The keys one attention row runs over, in order: ids[0, count) when
 * ids is set, else the prefix [0, count).
 */
struct KeyList
{
    std::size_t count = 0;
    const std::uint32_t* ids = nullptr;

    std::size_t operator[](std::size_t c) const
    {
        return ids != nullptr ? ids[c] : c;
    }
};

/**
 * One attention row of query q over the listed keys (unscaled scores,
 * as in the paper): weights[c] = softmax_c(q . K[keys[c]]), the
 * softmax taken over the list only. When value is given it also
 * accumulates out[col] += float(weights[c] * V[keys[c]][col]) in list
 * order. The list must not be empty.
 */
void attentionRow(const float* q, const Matrix& key, KeyList keys,
                  std::vector<double>& weights,
                  const Matrix* value = nullptr, float* out = nullptr);

/** Options of the exact attention computation. */
struct ExactAttentionOptions
{
    /**
     * Causal (autoregressive) masking: query i attends only keys
     * j <= i, as in the GPT-style text-generation workloads the
     * paper cites (n = 800-1024, Section IV-E).
     */
    bool causal = false;
};

/**
 * Receives query i's softmax-normalized attention row: weights[j] is
 * its attention on key j, with n entries, or i + 1 in causal mode.
 * The row is only valid during the call.
 */
using AttentionRowVisitor =
    std::function<void(std::size_t query,
                       const std::vector<double>& weights)>;

/**
 * Compute O = softmax(Q K^T) V; O is n x d. When visit is set it sees
 * every row in query order; the fidelity metrics read the exact
 * scores this way in O(n) memory.
 */
Matrix exactAttention(const AttentionInput& input,
                      const ExactAttentionOptions& options = {},
                      const AttentionRowVisitor& visit = {});

/**
 * Multiply-accumulate count of the exact computation: n^2 d for
 * Q K^T plus n^2 d for S' V (Section II-B).
 */
std::size_t exactAttentionMacs(std::size_t n, std::size_t d);

} // namespace elsa

#endif // ELSA_ATTENTION_EXACT_H_
