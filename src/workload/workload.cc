#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "attention/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "lsh/calibration.h"

namespace elsa {

namespace {

/** FNV-1a hash so each model/dataset pair gets its own streams. */
std::uint64_t
labelHash(const std::string& label)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : label) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

WorkloadRunner::WorkloadRunner(WorkloadSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed ^ labelHash(spec_.label())),
      generator_(spec_.model, seed_ ^ 0xABCDEF)
{
    Rng rng(seed_ ^ 0x5A5A5A5A);
    // The hardware hasher: three-way Kronecker factors, quantized to
    // the S0.5 fixed-point format (Sections III-C and IV-E). d = 64
    // for every evaluated model, so k = d = 64.
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(spec_.model.head_dim, 3, rng,
                                       /*quantize_factors=*/true));
    const double bias = thetaBiasFor(spec_.model.head_dim,
                                     hasher->bits(), rng);
    hasher_ = hasher;
    engine_ = std::make_unique<ApproxSelfAttention>(hasher_, bias);
}

std::vector<SublayerCoord>
WorkloadRunner::representativeSublayers(std::size_t max_count) const
{
    const std::size_t total = spec_.model.numSublayers();
    const std::size_t count = std::min(max_count, total);
    ELSA_CHECK(count > 0, "need at least one sublayer");
    std::vector<SublayerCoord> coords;
    coords.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Evenly spaced over the flattened (layer, head) space.
        const std::size_t flat = (i * total) / count;
        coords.push_back({flat / spec_.model.num_heads,
                          flat % spec_.model.num_heads});
    }
    return coords;
}

std::size_t
WorkloadRunner::evalLength(std::uint64_t input_id) const
{
    Rng rng = Rng(seed_ ^ 0x1E46).fork(input_id);
    return sampleSequenceLength(spec_.dataset, rng);
}

std::size_t
WorkloadRunner::trainLength(std::uint64_t input_id) const
{
    Rng rng = Rng(seed_ ^ 0x7124).fork(input_id);
    return sampleSequenceLength(spec_.dataset, rng);
}

const std::vector<double>&
WorkloadRunner::standardPGrid()
{
    static const std::vector<double> grid = {0.5, 1.0, 2.0, 3.0,
                                             4.0, 6.0, 8.0};
    return grid;
}

double
WorkloadRunner::learnThreshold(const SublayerCoord& coord, double p,
                               std::size_t num_train_inputs) const
{
    ThresholdLearner learner(p);
    for (std::uint64_t id = 0; id < num_train_inputs; ++id) {
        const std::size_t n_real = trainLength(id);
        // Training inputs use ids offset from evaluation inputs.
        const AttentionInput input = generator_.generate(
            coord.layer, coord.head, n_real, 1000000 + id);
        learner.observe(input.query, input.key);
    }
    return learner.threshold();
}

WorkloadEvaluation
WorkloadRunner::evaluate(double p,
                         const WorkloadEvalOptions& options) const
{
    WorkloadEvaluation eval;
    eval.p = p;
    const auto coords = representativeSublayers(options.max_sublayers);

    RunningStat fraction_stat;
    RunningStat recall_stat;
    RunningStat error_stat;
    RunningStat tokens_stat;
    double worst_recall = 1.0;

    for (const auto& coord : coords) {
        const double threshold =
            learnThreshold(coord, p, options.num_train_inputs);
        eval.thresholds.push_back(threshold);
        for (std::uint64_t id = 0; id < options.num_eval_inputs; ++id) {
            const std::size_t n_real = evalLength(id);
            tokens_stat.add(static_cast<double>(n_real));
            const AttentionInput input = generator_.generate(
                coord.layer, coord.head, n_real, id);
            const auto candidates =
                engine_->candidatesForAll(input, threshold);
            const ApproxAttentionResult result =
                engine_->run(input, threshold);
            const FidelityReport fidelity =
                measureFidelity(input, candidates, result.output);
            fraction_stat.add(
                result.stats.candidateFraction(input.n()));
            recall_stat.add(fidelity.mass_recall);
            error_stat.add(fidelity.output_relative_error);
            worst_recall =
                std::min(worst_recall, fidelity.mass_recall);
        }
    }
    eval.mean_candidate_fraction = fraction_stat.mean();
    eval.mean_mass_recall = recall_stat.mean();
    eval.worst_mass_recall = worst_recall;
    eval.mean_output_error = error_stat.mean();
    eval.mean_real_tokens = tokens_stat.mean();
    eval.estimated_loss_pct =
        estimateAccuracyLossPct(spec_.model, eval.mean_mass_recall);
    return eval;
}

std::vector<SimInvocation>
WorkloadRunner::simInvocations(double p, std::size_t num_inputs,
                               std::size_t max_sublayers,
                               const WorkloadEvalOptions& options) const
{
    const auto coords = representativeSublayers(max_sublayers);
    std::vector<SimInvocation> out;
    out.reserve(coords.size() * num_inputs);
    for (const auto& coord : coords) {
        const double threshold =
            p > 0.0 ? learnThreshold(coord, p, options.num_train_inputs)
                    : -std::numeric_limits<double>::infinity();
        for (std::uint64_t id = 0; id < num_inputs; ++id) {
            SimInvocation inv;
            inv.coord = coord;
            inv.n_real = evalLength(id);
            inv.n_padded = spec_.dataset.padded_length;
            inv.input = generator_.generate(coord.layer, coord.head,
                                            inv.n_real, id);
            inv.threshold = threshold;
            out.push_back(std::move(inv));
        }
    }
    return out;
}

} // namespace elsa
