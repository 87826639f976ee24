#include "attention/metrics.h"

#include <algorithm>

#include "tensor/ops.h"

namespace elsa {

namespace {

/**
 * Exact attention of input; on the way, mass[i] becomes query i's
 * candidate softmax mass, read from each exact row while it is live.
 */
Matrix
exactWithCandidateMass(
    const AttentionInput& input,
    const std::vector<std::vector<std::uint32_t>>& candidates,
    std::vector<double>& mass)
{
    mass.assign(candidates.size(), 0.0);
    return exactAttention(
        input, {},
        [&](std::size_t i, const std::vector<double>& weights) {
            for (const auto j : candidates[i]) {
                ELSA_CHECK(j < weights.size(),
                           "candidate id " << j << " of query " << i
                                           << " is out of range (n = "
                                           << weights.size() << ")");
                mass[i] += weights[j];
            }
        });
}

} // namespace

FidelityReport
measureFidelity(const AttentionInput& input,
                const std::vector<std::vector<std::uint32_t>>& candidates,
                const Matrix& approx_output)
{
    input.validate();
    ELSA_CHECK(candidates.size() == input.n(),
               "candidate list count mismatch in measureFidelity");
    std::vector<double> mass;
    const Matrix exact = exactWithCandidateMass(input, candidates, mass);

    FidelityReport report;
    double sum = 0.0;
    double worst = 1.0;
    for (const double m : mass) {
        sum += m;
        worst = std::min(worst, m);
    }
    report.mass_recall = mass.empty()
                             ? 1.0
                             : sum / static_cast<double>(mass.size());
    report.worst_query_recall = worst;
    const double exact_norm = frobeniusNorm(exact);
    report.output_relative_error =
        exact_norm > 0.0 ? frobeniusDiff(exact, approx_output) / exact_norm
                         : 0.0;
    return report;
}

double
attentionMassRecall(
    const AttentionInput& input,
    const std::vector<std::vector<std::uint32_t>>& candidates)
{
    input.validate();
    ELSA_CHECK(candidates.size() == input.n(),
               "candidate list count mismatch in attentionMassRecall");
    std::vector<double> mass;
    exactWithCandidateMass(input, candidates, mass);
    double sum = 0.0;
    for (const double m : mass) {
        sum += m;
    }
    return mass.empty() ? 1.0 : sum / static_cast<double>(mass.size());
}

} // namespace elsa
