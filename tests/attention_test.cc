/**
 * @file
 * Unit and property tests for the attention module: the exact
 * reference, the approximate candidate-filtered attention, threshold
 * learning (Fig. 6), and the fidelity metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "attention/approx.h"
#include "attention/exact.h"
#include "attention/metrics.h"
#include "attention/threshold.h"
#include "common/rng.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "tensor/ops.h"

namespace elsa {
namespace {

AttentionInput
randomInput(std::size_t n, std::size_t d, std::uint64_t seed)
{
    Rng rng(seed);
    AttentionInput input;
    input.query = Matrix(n, d);
    input.key = Matrix(n, d);
    input.value = Matrix(n, d);
    input.query.fillGaussian(rng);
    input.key.fillGaussian(rng);
    input.value.fillGaussian(rng);
    return input;
}

std::shared_ptr<const SrpHasher>
makeHasher(std::uint64_t seed = 77)
{
    Rng rng(seed);
    return std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
}

TEST(ExactAttentionTest, ValidatesShapes)
{
    AttentionInput input;
    input.query = Matrix(4, 8);
    input.key = Matrix(4, 8);
    input.value = Matrix(3, 8); // wrong
    EXPECT_THROW(exactAttention(input), Error);
    input.value = Matrix(4, 7); // wrong
    EXPECT_THROW(exactAttention(input), Error);
}

TEST(ExactAttentionTest, OutputRowsAreConvexCombinationsOfValues)
{
    // With softmax weights, each output row lies inside the convex
    // hull of the value rows: componentwise between min and max.
    const AttentionInput input = randomInput(16, 8, 1);
    const Matrix out = exactAttention(input);
    for (std::size_t c = 0; c < 8; ++c) {
        float lo = input.value(0, c);
        float hi = lo;
        for (std::size_t j = 1; j < 16; ++j) {
            lo = std::min(lo, input.value(j, c));
            hi = std::max(hi, input.value(j, c));
        }
        for (std::size_t i = 0; i < 16; ++i) {
            EXPECT_GE(out(i, c), lo - 1e-4);
            EXPECT_LE(out(i, c), hi + 1e-4);
        }
    }
}

TEST(ExactAttentionTest, DominantKeySelectsItsValue)
{
    // A query exactly aligned with one huge key makes the softmax a
    // near-argmax: the output row ~= that key's value row.
    const std::size_t n = 8;
    const std::size_t d = 4;
    AttentionInput input;
    input.query = Matrix(n, d);
    input.key = Matrix(n, d);
    input.value = Matrix(n, d);
    Rng rng(2);
    input.value.fillGaussian(rng);
    for (std::size_t j = 0; j < n; ++j) {
        input.key(j, j % d) = (j == 3) ? 20.0f : 0.5f;
    }
    input.query(0, 3 % d) = 20.0f; // aligns with key 3
    const Matrix out = exactAttention(input);
    for (std::size_t c = 0; c < d; ++c) {
        EXPECT_NEAR(out(0, c), input.value(3, c), 1e-3);
    }
}

TEST(ExactAttentionTest, VisitedRowsAreSoftmaxOfRawScores)
{
    // The visitor sees every row once, in query order, and each row
    // is bit for bit softmaxInPlace of the raw dot products.
    const AttentionInput input = randomInput(12, 8, 3);
    std::size_t next = 0;
    exactAttention(input, {},
                   [&](std::size_t i, const std::vector<double>& row) {
                       EXPECT_EQ(i, next++);
                       std::vector<double> expected(12);
                       for (std::size_t j = 0; j < 12; ++j) {
                           expected[j] = dot(input.query.row(i),
                                             input.key.row(j), 8);
                       }
                       softmaxInPlace(expected);
                       EXPECT_EQ(row, expected) << "query " << i;
                   });
    EXPECT_EQ(next, 12u);
}

TEST(ExactAttentionTest, MacCountFormula)
{
    EXPECT_EQ(exactAttentionMacs(512, 64), 2u * 512u * 512u * 64u);
}

TEST(ApproxAttentionTest, PreprocessingComputesNormsAndHashes)
{
    const AttentionInput input = randomInput(32, 64, 6);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    const KeyPreprocessing prep = engine.preprocessKeys(input.key);
    ASSERT_EQ(prep.hashes.size(), 32u);
    ASSERT_EQ(prep.norms.size(), 32u);
    double max_norm = 0.0;
    for (std::size_t j = 0; j < 32; ++j) {
        EXPECT_NEAR(prep.norms[j], l2Norm(input.key.row(j), 64), 1e-4);
        max_norm = std::max(max_norm, prep.norms[j]);
    }
    EXPECT_DOUBLE_EQ(prep.max_norm, max_norm);
}

TEST(ApproxAttentionTest, MinusInfinityThresholdSelectsEverything)
{
    const AttentionInput input = randomInput(24, 64, 7);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    const auto result = engine.run(
        input, -std::numeric_limits<double>::infinity());
    for (const auto c : result.stats.candidates_per_query) {
        EXPECT_EQ(c, 24u);
    }
    EXPECT_EQ(result.stats.empty_selections, 0u);
    // Selecting everything reproduces the exact attention bit for
    // bit: the candidate list runs the same row kernel as the prefix.
    EXPECT_TRUE(result.output == exactAttention(input));
}

TEST(ApproxAttentionTest, HugeThresholdTriggersFallback)
{
    const AttentionInput input = randomInput(24, 64, 8);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    const auto result = engine.run(input, 1e9);
    // Nothing passes the filter, so every query used the best-key
    // fallback and got exactly one candidate.
    EXPECT_EQ(result.stats.empty_selections, 24u);
    for (const auto c : result.stats.candidates_per_query) {
        EXPECT_EQ(c, 1u);
    }
}

TEST(ApproxAttentionTest, CandidateCountMonotoneInThreshold)
{
    const AttentionInput input = randomInput(48, 64, 9);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    std::size_t prev = std::numeric_limits<std::size_t>::max();
    for (const double t : {-1.0, 0.0, 0.2, 0.4, 0.8}) {
        const auto cands = engine.candidatesForAll(input, t);
        std::size_t total = 0;
        for (const auto& c : cands) {
            total += c.size();
        }
        EXPECT_LE(total, prev) << "threshold " << t;
        prev = total;
    }
}

TEST(ApproxAttentionTest, SelectionMatchesManualFormula)
{
    const AttentionInput input = randomInput(16, 64, 10);
    auto hasher = makeHasher();
    ApproxSelfAttention engine(hasher, kThetaBias64);
    const KeyPreprocessing prep = engine.preprocessKeys(input.key);
    const double threshold = 0.3;
    const HashValue qh = hasher->hash(input.query.row(0));
    const auto selected = engine.selectCandidates(qh, prep, threshold);
    std::vector<std::uint32_t> expected;
    for (std::size_t y = 0; y < 16; ++y) {
        const int ham = hammingDistance(qh, prep.hashes[y]);
        const double sim = approximateSimilarity(prep.norms[y], ham, 64,
                                                 kThetaBias64);
        if (sim > threshold * prep.max_norm) {
            expected.push_back(static_cast<std::uint32_t>(y));
        }
    }
    EXPECT_EQ(selected, expected);
}

TEST(ApproxAttentionTest, StatsFractionAndTotal)
{
    ApproxAttentionStats stats;
    stats.candidates_per_query = {4, 8, 12};
    EXPECT_EQ(stats.totalCandidates(), 24u);
    EXPECT_DOUBLE_EQ(stats.candidateFraction(16), 0.5);
}

TEST(ApproxAttentionTest, RejectsDimensionMismatch)
{
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    EXPECT_THROW(engine.preprocessKeys(Matrix(8, 32)), Error);
}

TEST(ThresholdLearnerTest, RejectsNegativeP)
{
    EXPECT_THROW(ThresholdLearner(-1.0), Error);
}

TEST(ThresholdLearnerTest, PZeroLearnsNothingAndSelectsAll)
{
    ThresholdLearner learner(0.0);
    const AttentionInput input = randomInput(16, 64, 12);
    learner.observe(input.query, input.key);
    EXPECT_EQ(learner.sampleCount(), 0u);
    EXPECT_TRUE(std::isinf(learner.threshold()));
    EXPECT_LT(learner.threshold(), 0.0);
}

TEST(ThresholdLearnerTest, HandCraftedTwoKeyCase)
{
    // Two entities; query 0 = key 0 direction. Scores are designed
    // so that with p = 1 (floor = 0.5) only the dominant key
    // qualifies, making the expected threshold computable by hand.
    const std::size_t d = 4;
    AttentionInput input;
    input.query = Matrix(2, d);
    input.key = Matrix(2, d);
    input.value = Matrix(2, d);
    // Keys: e0 * 2 and e1 * 4 (max norm 4).
    input.key(0, 0) = 2.0f;
    input.key(1, 1) = 4.0f;
    // Queries: along e0 and along e1 (unit norm).
    input.query(0, 0) = 1.0f;
    input.query(1, 1) = 1.0f;

    ThresholdLearner learner(1.0);
    learner.observe(input.query, input.key);
    ASSERT_EQ(learner.sampleCount(), 2u);
    // Query 0: raw scores {2, 0} -> softmax {0.88, 0.12}; only key 0
    // qualifies (> 0.5). Sample = 2 / (1 * 4) = 0.5.
    // Query 1: raw scores {0, 4} -> softmax {0.018, 0.982}; only key
    // 1 qualifies. Sample = 4 / (1 * 4) = 1.0.
    EXPECT_NEAR(learner.threshold(), 0.75, 1e-9);
}

TEST(ThresholdLearnerTest, FallsBackToMaxKeyWhenNoneQualify)
{
    // p = 8 with n = 2 -> floor = 4: no softmax value can exceed it,
    // so the learner must take the max-score key (footnote 1).
    const std::size_t d = 4;
    AttentionInput input;
    input.query = Matrix(2, d);
    input.key = Matrix(2, d);
    input.value = Matrix(2, d);
    input.key(0, 0) = 2.0f;
    input.key(1, 1) = 4.0f;
    input.query(0, 0) = 1.0f;
    input.query(1, 1) = 1.0f;

    ThresholdLearner learner(8.0);
    learner.observe(input.query, input.key);
    ASSERT_EQ(learner.sampleCount(), 2u);
    EXPECT_NEAR(learner.threshold(), 0.75, 1e-9);
}

TEST(ThresholdLearnerTest, ThresholdMonotoneInP)
{
    const AttentionInput input = randomInput(64, 64, 13);
    double prev = -1e9;
    for (const double p : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        ThresholdLearner learner(p);
        learner.observe(input.query, input.key);
        const double t = learner.threshold();
        EXPECT_GE(t, prev) << "p = " << p;
        prev = t;
    }
}

TEST(ThresholdLearnerTest, SkipsZeroNormPaddingQueries)
{
    AttentionInput input = randomInput(8, 64, 14);
    // Zero out two query rows (padding).
    for (std::size_t c = 0; c < 64; ++c) {
        input.query(6, c) = 0.0f;
        input.query(7, c) = 0.0f;
    }
    ThresholdLearner learner(1.0);
    learner.observe(input.query, input.key);
    EXPECT_EQ(learner.sampleCount(), 6u);
}

TEST(MetricsTest, FullCandidatesGivePerfectFidelity)
{
    const AttentionInput input = randomInput(16, 64, 16);
    std::vector<std::vector<std::uint32_t>> all(16);
    for (auto& c : all) {
        for (std::uint32_t j = 0; j < 16; ++j) {
            c.push_back(j);
        }
    }
    const Matrix exact = exactAttention(input);
    const FidelityReport report = measureFidelity(input, all, exact);
    EXPECT_NEAR(report.mass_recall, 1.0, 1e-9);
    EXPECT_NEAR(report.worst_query_recall, 1.0, 1e-9);
    EXPECT_NEAR(report.output_relative_error, 0.0, 1e-9);
}

TEST(MetricsTest, RecallDropsWhenDroppingTopKey)
{
    const AttentionInput input = randomInput(16, 64, 17);
    // Candidates = everything except each query's top key.
    std::vector<std::vector<std::uint32_t>> cands(16);
    exactAttention(input, {},
                   [&](std::size_t i, const std::vector<double>& row) {
                       const auto top = static_cast<std::uint32_t>(
                           std::max_element(row.begin(), row.end())
                           - row.begin());
                       for (std::uint32_t j = 0; j < 16; ++j) {
                           if (j != top) {
                               cands[i].push_back(j);
                           }
                       }
                   });
    const double recall = attentionMassRecall(input, cands);
    EXPECT_LT(recall, 1.0);
    EXPECT_GT(recall, 0.0);
}

TEST(MetricsTest, RecallMatchesHandComputedMass)
{
    const AttentionInput input = randomInput(8, 64, 18);
    // Candidates = keys {0, 1} for every query.
    std::vector<std::vector<std::uint32_t>> cands(
        8, std::vector<std::uint32_t>{0, 1});
    double expected = 0.0;
    exactAttention(input, {},
                   [&](std::size_t, const std::vector<double>& row) {
                       expected += row[0] + row[1];
                   });
    expected /= 8.0;
    EXPECT_NEAR(attentionMassRecall(input, cands), expected, 1e-9);
}

TEST(MetricsTest, OutOfRangeCandidateThrows)
{
    // A caller-supplied id of n names no key; both metrics reject it
    // rather than read past the exact row.
    const AttentionInput input = randomInput(8, 64, 19);
    std::vector<std::vector<std::uint32_t>> cands(
        8, std::vector<std::uint32_t>{0});
    cands[5] = {1, 8};
    const Matrix exact = exactAttention(input);
    const auto expect_rejected = [](const auto& call) {
        try {
            call();
            ADD_FAILURE() << "out-of-range candidate id was accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "candidate id 8 of query 5"),
                      std::string::npos)
                << e.what();
        }
    };
    expect_rejected([&] { measureFidelity(input, cands, exact); });
    expect_rejected([&] { attentionMassRecall(input, cands); });
}

} // namespace
} // namespace elsa
