#ifndef ELSA_WORKLOAD_WORKLOAD_H_
#define ELSA_WORKLOAD_WORKLOAD_H_

/**
 * @file
 * WorkloadRunner: end-to-end driver of one model-dataset pair.
 *
 * Mirrors the paper's methodology (Sections III-E and V-B):
 *  - learn per-(sub-)layer thresholds from a training set for a
 *    given approximation hyperparameter p;
 *  - evaluate candidate fractions, attention-mass recall, and the
 *    accuracy-loss proxy on an evaluation set;
 *  - provide the standard p grid from which ElsaSystem::chooseP
 *    picks p per mode (conservative / moderate / aggressive) as the
 *    largest p whose estimated loss stays within the mode's bound.
 *
 * A full BERT-large pass has 24 x 16 = 384 (sub-)layers; evaluating
 * each on every input is unnecessary for the statistics we report, so
 * the runner evaluates an evenly spaced subsample of sublayers
 * (configurable; the profiles vary smoothly across the stack, so the
 * subsample is representative).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "attention/approx.h"
#include "attention/threshold.h"
#include "workload/accuracy.h"
#include "workload/generator.h"
#include "workload/model.h"

namespace elsa {

/** A (layer, head) coordinate. */
struct SublayerCoord
{
    std::size_t layer = 0;
    std::size_t head = 0;
};

/** Knobs of a workload evaluation run. */
struct WorkloadEvalOptions
{
    /** Training inputs used per sublayer for threshold learning. */
    std::size_t num_train_inputs = 3;

    /** Evaluation inputs per sublayer. */
    std::size_t num_eval_inputs = 3;

    /** Sublayers sampled from the model (evenly spaced). */
    std::size_t max_sublayers = 8;
};

/** Aggregate result of evaluating one workload at one p. */
struct WorkloadEvaluation
{
    double p = 0.0;
    double mean_candidate_fraction = 1.0;
    double mean_mass_recall = 1.0;
    double worst_mass_recall = 1.0;
    double mean_output_error = 0.0;
    double estimated_loss_pct = 0.0;
    /** Mean real-token count of the evaluation inputs. */
    double mean_real_tokens = 0.0;
    /** Learned thresholds of the sampled sublayers. */
    std::vector<double> thresholds;
};

/** One attention invocation plus its learned threshold, for the
 *  simulator and the benchmarks. */
struct SimInvocation
{
    SublayerCoord coord;
    AttentionInput input;
    double threshold = 0.0;
    std::size_t n_real = 0;
    std::size_t n_padded = 0;
};

/** Driver of one model-dataset workload. */
class WorkloadRunner
{
  public:
    /**
     * @param spec Model-dataset pair to run.
     * @param seed Master seed; every stream (inputs, lengths, hash
     *             matrices) derives from it.
     */
    WorkloadRunner(WorkloadSpec spec, std::uint64_t seed = 0x5eed);

    const WorkloadSpec& spec() const { return spec_; }

    /** The shared approximate-attention engine (Kronecker hasher). */
    const ApproxSelfAttention& engine() const { return *engine_; }

    /** Evenly spaced sublayer subsample of size <= max_count. */
    std::vector<SublayerCoord>
    representativeSublayers(std::size_t max_count) const;

    /**
     * Learn thresholds on the training stream and evaluate fidelity
     * on the evaluation stream for a given p.
     */
    WorkloadEvaluation evaluate(double p,
                                const WorkloadEvalOptions& options = {})
        const;

    /**
     * Materialize invocations (inputs + learned thresholds) for the
     * cycle-level simulator.
     *
     * @param p           Approximation hyperparameter (0 = exact).
     * @param num_inputs  Evaluation inputs to draw.
     * @param max_sublayers Sublayer subsample size.
     */
    std::vector<SimInvocation>
    simInvocations(double p, std::size_t num_inputs,
                   std::size_t max_sublayers,
                   const WorkloadEvalOptions& options = {}) const;

    /** Sequence length of evaluation input input_id (deterministic). */
    std::size_t evalLength(std::uint64_t input_id) const;

    /** Sequence length of training input input_id (deterministic). */
    std::size_t trainLength(std::uint64_t input_id) const;

    /** The standard p grid {0.5, 1, 2, 3, 4, 6, 8} that
     *  ElsaSystem::chooseP scans per mode. */
    static const std::vector<double>& standardPGrid();

  private:
    /** Learn one sublayer's threshold from the training stream. */
    double learnThreshold(const SublayerCoord& coord, double p,
                          std::size_t num_train_inputs) const;

    WorkloadSpec spec_;
    std::uint64_t seed_;
    QkvGenerator generator_;
    std::shared_ptr<const SrpHasher> hasher_;
    std::unique_ptr<ApproxSelfAttention> engine_;
};

} // namespace elsa

#endif // ELSA_WORKLOAD_WORKLOAD_H_
