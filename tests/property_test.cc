/**
 * @file
 * Property-based tests: invariances and cross-implementation
 * consistency checks that must hold across parameter sweeps
 * (TEST_P suites), exercising the algorithm on all five models and
 * a range of sizes/thresholds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "attention/approx.h"
#include "attention/exact.h"
#include "attention/metrics.h"
#include "attention/threshold.h"
#include "common/rng.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "sim/accelerator.h"
#include "tensor/ops.h"
#include "workload/generator.h"
#include "workload/model.h"

namespace elsa {
namespace {

std::shared_ptr<const SrpHasher>
makeHasher(std::uint64_t seed = 2024)
{
    Rng rng(seed);
    return std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
}

// --- Generator invariants across all evaluated models ---------------

class ModelSweepTest
    : public ::testing::TestWithParam<const char*>
{
  protected:
    static ModelConfig
    model()
    {
        const std::string name = GetParam();
        if (name == "BERT") return bertLarge();
        if (name == "RoBERTa") return robertaLarge();
        if (name == "ALBERT") return albertLarge();
        if (name == "SASRec") return sasRec();
        return bert4Rec();
    }
};

TEST_P(ModelSweepTest, GeneratorProducesValidRangeBoundedInputs)
{
    const ModelConfig config = model();
    QkvGenerator gen(config, 9001);
    const AttentionInput input = gen.generate(
        config.num_layers - 1, config.num_heads - 1, 96, 2);
    input.validate();
    EXPECT_EQ(input.d(), 64u);
    for (const Matrix* m : {&input.query, &input.key, &input.value}) {
        for (std::size_t i = 0; i < m->size(); ++i) {
            ASSERT_TRUE(std::isfinite(m->data()[i]));
            ASSERT_LT(std::abs(m->data()[i]), 31.875f);
        }
    }
}

TEST_P(ModelSweepTest, AttentionConcentratesForEverySublayerProfile)
{
    const ModelConfig config = model();
    QkvGenerator gen(config, 7777);
    // Spot-check first and last layer.
    for (const std::size_t layer : {std::size_t{0},
                                    config.num_layers - 1}) {
        const AttentionInput input = gen.generate(layer, 0, 128, 0);
        double top8 = 0.0;
        exactAttention(
            input, {},
            [&](std::size_t, const std::vector<double>& row) {
                std::vector<double> sorted = row;
                std::sort(sorted.rbegin(), sorted.rend());
                for (int j = 0; j < 8; ++j) {
                    top8 += sorted[j];
                }
            });
        top8 /= 128.0;
        EXPECT_GT(top8, 0.3) << "layer " << layer;
    }
}

TEST_P(ModelSweepTest, ThresholdLearningIsDeterministic)
{
    const ModelConfig config = model();
    QkvGenerator gen(config, 123);
    const AttentionInput input = gen.generate(0, 0, 64, 0);
    ThresholdLearner a(1.0);
    ThresholdLearner b(1.0);
    a.observe(input.query, input.key);
    b.observe(input.query, input.key);
    EXPECT_DOUBLE_EQ(a.threshold(), b.threshold());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelSweepTest,
                         ::testing::Values("BERT", "RoBERTa", "ALBERT",
                                           "SASRec", "BERT4Rec"));

// --- Joint permutation invariance ------------------------------------

TEST(PermutationInvarianceTest, ExactAttentionInvariantToKeyOrder)
{
    QkvGenerator gen(bertLarge(), 5);
    const AttentionInput input = gen.generate(3, 3, 48, 0);
    // Reverse the key/value rows jointly.
    AttentionInput permuted = input;
    for (std::size_t j = 0; j < 48; ++j) {
        std::copy(input.key.row(47 - j), input.key.row(47 - j) + 64,
                  permuted.key.row(j));
        std::copy(input.value.row(47 - j),
                  input.value.row(47 - j) + 64, permuted.value.row(j));
    }
    const Matrix a = exactAttention(input);
    const Matrix b = exactAttention(permuted);
    EXPECT_LT(maxAbsDiff(a, b), 1e-4);
}

TEST(PermutationInvarianceTest, ApproxAttentionInvariantToKeyOrder)
{
    QkvGenerator gen(bertLarge(), 6);
    const AttentionInput input = gen.generate(3, 3, 48, 0);
    AttentionInput permuted = input;
    for (std::size_t j = 0; j < 48; ++j) {
        std::copy(input.key.row(47 - j), input.key.row(47 - j) + 64,
                  permuted.key.row(j));
        std::copy(input.value.row(47 - j),
                  input.value.row(47 - j) + 64, permuted.value.row(j));
    }
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    const auto a = engine.run(input, 0.2);
    const auto b = engine.run(permuted, 0.2);
    // Same per-query candidate counts (selection depends only on the
    // key set) and numerically close outputs (summation order
    // changes).
    EXPECT_EQ(a.stats.totalCandidates(), b.stats.totalCandidates());
    EXPECT_LT(maxAbsDiff(a.output, b.output), 1e-3);
}

// --- Scale covariance -------------------------------------------------

TEST(ScaleInvarianceTest, LearnedThresholdInvariantToKeyScale)
{
    // t = s_min / (||q|| ||K_max||): scaling every key by c scales
    // both numerator and denominator by c.
    QkvGenerator gen(bertLarge(), 7);
    const AttentionInput input = gen.generate(4, 4, 64, 0);
    Matrix scaled_keys = input.key;
    for (std::size_t i = 0; i < scaled_keys.size(); ++i) {
        scaled_keys.data()[i] *= 0.5f;
    }
    ThresholdLearner a(1.0);
    ThresholdLearner b(1.0);
    a.observe(input.query, input.key);
    // NOTE: softmax scores change with the key scale, so the set of
    // qualifying keys can change; the *normalized* threshold still
    // stays within a small band.
    b.observe(input.query, scaled_keys);
    EXPECT_NEAR(a.threshold(), b.threshold(), 0.15);
}

TEST(ScaleInvarianceTest, SelectionInvariantToJointKeyScale)
{
    // Approximate similarity and the cutoff both scale linearly in
    // the key norms, so candidate sets are identical.
    QkvGenerator gen(bertLarge(), 8);
    const AttentionInput input = gen.generate(4, 4, 64, 0);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    AttentionInput scaled = input;
    for (std::size_t i = 0; i < scaled.key.size(); ++i) {
        scaled.key.data()[i] *= 2.0f;
    }
    const auto a = engine.candidatesForAll(input, 0.3);
    const auto b = engine.candidatesForAll(scaled, 0.3);
    EXPECT_EQ(a, b);
}

// --- Simulator / software consistency across thresholds ---------------

class ThresholdSweepTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ThresholdSweepTest, SimulatorMatchesSoftwareUnquantized)
{
    const double threshold = GetParam();
    QkvGenerator gen(bertLarge(), 99);
    const AttentionInput input = gen.generate(9, 1, 80, 1);

    auto hasher = makeHasher(31);
    SimConfig config = SimConfig::paperConfig();
    config.model_quantization = false;
    Accelerator accel(config, hasher, kThetaBias64);
    ApproxSelfAttention engine(hasher, kThetaBias64);

    const RunResult hw = accel.run(input, threshold);
    const ApproxAttentionResult sw = engine.run(input, threshold);
    EXPECT_EQ(hw.candidates_per_query,
              sw.stats.candidates_per_query);
    EXPECT_LT(maxAbsDiff(hw.output, sw.output), 1e-3);
}

TEST_P(ThresholdSweepTest, QuantizationPerturbsOutputBoundedly)
{
    const double threshold = GetParam();
    QkvGenerator gen(bertLarge(), 100);
    const AttentionInput input = gen.generate(9, 1, 80, 1);

    auto hasher = makeHasher(32);
    SimConfig exact_cfg = SimConfig::paperConfig();
    exact_cfg.model_quantization = false;
    SimConfig quant_cfg = SimConfig::paperConfig();

    const RunResult precise =
        Accelerator(exact_cfg, hasher, kThetaBias64).run(input,
                                                         threshold);
    const RunResult quantized =
        Accelerator(quant_cfg, hasher, kThetaBias64).run(input,
                                                         threshold);
    const double ref = frobeniusNorm(precise.output);
    EXPECT_LT(frobeniusDiff(precise.output, quantized.output),
              0.25 * ref + 1e-9)
        << "threshold " << threshold;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweepTest,
                         ::testing::Values(-1e30, 0.0, 0.1, 0.25,
                                           0.4));

// --- Timing monotonicity ----------------------------------------------

class SizeSweepTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SizeSweepTest, CyclesGrowWithSequenceLength)
{
    const std::size_t n = GetParam();
    QkvGenerator gen(bertLarge(), 55);
    Accelerator accel(SimConfig::paperConfig(), makeHasher(44),
                      kThetaBias64);
    const AttentionInput small = gen.generate(2, 2, n, 0);
    const AttentionInput large = gen.generate(2, 2, n * 2, 0);
    const RunResult a = accel.run(
        small, -std::numeric_limits<double>::infinity());
    const RunResult b = accel.run(
        large, -std::numeric_limits<double>::infinity());
    // Exact mode: ~quadratic growth, definitely super-linear.
    EXPECT_GT(b.totalCycles(), 2 * a.totalCycles());
    EXPECT_LT(b.totalCycles(), 8 * a.totalCycles());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweepTest,
                         ::testing::Values(32, 64, 128, 256));

} // namespace
} // namespace elsa
