#ifndef ELSA_ATTENTION_THRESHOLD_H_
#define ELSA_ATTENTION_THRESHOLD_H_

/**
 * @file
 * Layer-specific threshold learning (Section III-E, Fig. 6).
 *
 * A single user hyperparameter p expresses the degree of
 * approximation; the learner converts it into a per-(sub-)layer
 * threshold t by inspecting attention invocations on a training set:
 *
 *  1. per query, find the keys whose softmax-normalized score exceeds
 *     p/n (or, when none does, the maximum-score key);
 *  2. among those, take the key with the minimum softmax score and
 *     normalize its *raw* score by ||q|| * ||K_max||;
 *  3. average the resulting value over all queries and invocations.
 *
 * At inference, a key is selected when its approximate similarity
 * exceeds t * ||K_max|| of the current key matrix.
 */

#include <cstddef>

#include "attention/exact.h"
#include "common/stats.h"
#include "tensor/matrix.h"

namespace elsa {

/** Learns the candidate-selection threshold t of one (sub-)layer. */
class ThresholdLearner
{
  public:
    /**
     * @param p Degree-of-approximation hyperparameter; p = 0 disables
     *          approximation (threshold learning still runs but the
     *          resulting threshold selects everything). Larger p means
     *          more aggressive filtering.
     */
    explicit ThresholdLearner(double p);

    /** The hyperparameter p. */
    double p() const { return p_; }

    /**
     * Inspect one self-attention invocation of this (sub-)layer on a
     * training input.
     */
    void observe(const Matrix& query, const Matrix& key);

    /** Number of (query) samples folded into the threshold so far. */
    std::size_t sampleCount() const { return stat_.count(); }

    /**
     * The learned threshold t (mean over observed samples). Negative
     * infinity when p = 0 or nothing was observed, which makes the
     * skip condition select every key (the paper's exact fallback).
     */
    double threshold() const;

  private:
    double p_;
    RunningStat stat_;
};

} // namespace elsa

#endif // ELSA_ATTENTION_THRESHOLD_H_
