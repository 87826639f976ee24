#include "attention/approx.h"

#include <algorithm>

#include "lsh/candidates.h"
#include "obs/profile.h"
#include "tensor/ops.h"

namespace elsa {

std::size_t
ApproxAttentionStats::totalCandidates() const
{
    std::size_t total = 0;
    for (const auto c : candidates_per_query) {
        total += c;
    }
    return total;
}

double
ApproxAttentionStats::candidateFraction(std::size_t n) const
{
    if (candidates_per_query.empty() || n == 0) {
        return 0.0;
    }
    const double mean = static_cast<double>(totalCandidates())
                        / static_cast<double>(candidates_per_query.size());
    return mean / static_cast<double>(n);
}

ApproxSelfAttention::ApproxSelfAttention(
    std::shared_ptr<const SrpHasher> hasher, double theta_bias)
    : hasher_(std::move(hasher)),
      cos_lut_(hasher_ ? hasher_->bits() : 1, theta_bias)
{
    ELSA_CHECK(hasher_ != nullptr, "null hasher");
}

KeyPreprocessing
ApproxSelfAttention::preprocessKeys(const Matrix& key) const
{
    ELSA_CHECK(key.cols() == hasher_->dim(),
               "key dim " << key.cols() << " != hasher dim "
                          << hasher_->dim());
    KeyPreprocessing prep;
    prep.hashes = hasher_->hashMatrix(key);
    {
        ELSA_PROF_SCOPE("attention.key_norms");
        prep.norms = l2NormRows(key);
        for (const double norm : prep.norms) {
            prep.max_norm = std::max(prep.max_norm, norm);
        }
    }
    return prep;
}

std::vector<std::uint32_t>
ApproxSelfAttention::selectCandidates(HashView query_hash,
                                      const KeyPreprocessing& prep,
                                      double threshold) const
{
    std::vector<std::uint32_t> selected;
    selectAboveCutoff(query_hash, prep.hashes, prep.norms, cos_lut_,
                      threshold * prep.max_norm, 0, prep.hashes.rows(),
                      selected);
    return selected;
}

std::vector<std::vector<std::uint32_t>>
ApproxSelfAttention::candidatesForAll(const AttentionInput& input,
                                      double threshold) const
{
    input.validate();
    const KeyPreprocessing prep = preprocessKeys(input.key);
    const HashMatrix query_hashes = hasher_->hashMatrix(input.query);
    std::vector<std::vector<std::uint32_t>> all(input.n());
    for (std::size_t i = 0; i < input.n(); ++i) {
        all[i] = selectCandidates(query_hashes[i], prep, threshold);
    }
    return all;
}

ApproxAttentionResult
ApproxSelfAttention::run(const AttentionInput& input,
                         double threshold) const
{
    return runRows(input, threshold, false);
}

ApproxAttentionResult
ApproxSelfAttention::runCausal(const AttentionInput& input,
                               double threshold) const
{
    return runRows(input, threshold, true);
}

ApproxAttentionResult
ApproxSelfAttention::runRows(const AttentionInput& input,
                             double threshold, bool causal) const
{
    input.validate();
    const std::size_t n = input.n();
    const KeyPreprocessing prep = preprocessKeys(input.key);

    ApproxAttentionResult result;
    result.output = Matrix(n, input.d());
    result.stats.candidates_per_query.resize(n);

    const HashMatrix query_hashes = hasher_->hashMatrix(input.query);
    std::vector<std::uint32_t> cands;
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
        const HashView qh = query_hashes[i];
        // In causal mode only keys j <= i are visible: the hardware
        // equivalent simply stops the candidate scan at key i.
        const std::size_t visible = causal ? i + 1 : n;
        cands.clear();
        selectAboveCutoff(qh, prep.hashes, prep.norms, cos_lut_,
                          threshold * prep.max_norm, 0, visible, cands);
        if (cands.empty()) {
            ++result.stats.empty_selections;
            cands.push_back(argmaxSimilarity(qh, prep.hashes, prep.norms,
                                             cos_lut_, 0, visible));
        }
        result.stats.candidates_per_query[i] = cands.size();
        attentionRow(input.query.row(i), input.key,
                     KeyList{cands.size(), cands.data()}, weights,
                     &input.value, result.output.row(i));
    }
    return result;
}

} // namespace elsa
