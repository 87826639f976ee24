#include "attention/threshold.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/profile.h"
#include "tensor/ops.h"

namespace elsa {

ThresholdLearner::ThresholdLearner(double p) : p_(p)
{
    ELSA_CHECK(p >= 0.0, "approximation hyperparameter p must be >= 0");
}

void
ThresholdLearner::observe(const Matrix& query, const Matrix& key)
{
    ELSA_CHECK(query.cols() == key.cols(),
               "query/key dim mismatch in threshold learning");
    ELSA_CHECK(query.rows() == key.rows(),
               "query/key row mismatch in threshold learning");
    if (p_ == 0.0) {
        return; // Exact mode; no threshold to learn.
    }
    ELSA_PROF_SCOPE("threshold.observe");
    const std::size_t n = key.rows();
    const std::size_t d = key.cols();

    double max_key_norm = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        max_key_norm = std::max(max_key_norm, l2Norm(key.row(j), d));
    }
    ELSA_CHECK(max_key_norm > 0.0, "all-zero key matrix");

    const double score_floor = p_ / static_cast<double>(n);
    std::vector<double> soft;
    for (std::size_t i = 0; i < n; ++i) {
        const float* q = query.row(i);
        const double q_norm = l2Norm(q, d);
        if (q_norm == 0.0) {
            continue; // Padding row; produces no sample.
        }
        attentionRow(q, key, KeyList{n}, soft);

        // Step 1: keys whose softmax score exceeds p/n; step 2: among
        // them, the one with the minimum softmax score. When none
        // qualifies (possible for p > 1), take the max-score key
        // (footnote 1 of the paper).
        std::size_t chosen = n;
        double chosen_soft = std::numeric_limits<double>::infinity();
        double best_soft = -1.0;
        std::size_t best_j = 0;
        for (std::size_t j = 0; j < n; ++j) {
            if (soft[j] > best_soft) {
                best_soft = soft[j];
                best_j = j;
            }
            if (soft[j] > score_floor && soft[j] < chosen_soft) {
                chosen_soft = soft[j];
                chosen = j;
            }
        }
        if (chosen == n) {
            chosen = best_j;
        }
        // Normalize the raw score by ||q|| * ||K_max||.
        stat_.add(dot(q, key.row(chosen), d) / (q_norm * max_key_norm));
    }
}

double
ThresholdLearner::threshold() const
{
    if (p_ == 0.0 || stat_.count() == 0) {
        // Exact fallback (p = 0) or nothing learned yet: a -inf
        // threshold makes the skip condition select every key, which
        // is the paper's "fall back to the exact version".
        return -std::numeric_limits<double>::infinity();
    }
    return stat_.mean();
}

} // namespace elsa
