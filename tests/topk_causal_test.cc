/**
 * @file
 * Tests for the top-k selection alternative (Section III-E's
 * rejected design) and causal (autoregressive) attention.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "attention/approx.h"
#include "attention/exact.h"
#include "attention/metrics.h"
#include "attention/topk.h"
#include "common/rng.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "tensor/ops.h"
#include "workload/generator.h"

namespace elsa {
namespace {

std::shared_ptr<const SrpHasher>
makeHasher()
{
    Rng rng(13);
    return std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
}

AttentionInput
workloadInput(std::size_t n, std::uint64_t id = 0)
{
    QkvGenerator gen(bertLarge(), 4242);
    return gen.generate(7, 1, n, id);
}

// --- Top-k selection --------------------------------------------------

TEST(TopKTest, ReturnsExactlyKCandidatesSorted)
{
    const AttentionInput input = workloadInput(64);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    TopKSelector selector(engine);
    const auto lists = selector.select(input, 8);
    ASSERT_EQ(lists.size(), 64u);
    for (const auto& list : lists) {
        EXPECT_EQ(list.size(), 8u);
        EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    }
}

TEST(TopKTest, KLargerThanNKeepsEverything)
{
    const AttentionInput input = workloadInput(16);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    TopKSelector selector(engine);
    const auto lists = selector.select(input, 100);
    for (const auto& list : lists) {
        EXPECT_EQ(list.size(), 16u);
    }
    EXPECT_THROW(selector.select(input, 0), Error);
}

TEST(TopKTest, OracleBeatsApproximateSelection)
{
    // At equal budget, exact-score top-k captures at least as much
    // softmax mass as hash-based top-k.
    const AttentionInput input = workloadInput(128);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    TopKSelector selector(engine);
    const auto approx_lists = selector.select(input, 16);
    const auto oracle_lists = TopKSelector::selectOracle(input, 16);
    const double approx_recall =
        attentionMassRecall(input, approx_lists);
    const double oracle_recall =
        attentionMassRecall(input, oracle_lists);
    EXPECT_GE(oracle_recall + 1e-9, approx_recall);
    // 16 of 128 keys hold most of the mass on this (broad) head.
    EXPECT_GT(oracle_recall, 0.6);
}

TEST(TopKTest, MoreBudgetMoreRecall)
{
    const AttentionInput input = workloadInput(128);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    TopKSelector selector(engine);
    double prev = -1.0;
    for (const std::size_t k : {4u, 16u, 64u, 128u}) {
        const double recall =
            attentionMassRecall(input, selector.select(input, k));
        EXPECT_GE(recall, prev);
        prev = recall;
    }
    EXPECT_NEAR(prev, 1.0, 1e-9); // k = n keeps everything.
}

TEST(TopKTest, SortCostFormula)
{
    EXPECT_NEAR(TopKSelector::sortOpsPerQuery(512), 512.0 * 9.0,
                1e-9);
}

// --- Causal attention ---------------------------------------------------

TEST(CausalTest, FirstQueryAttendsOnlyItself)
{
    const AttentionInput input = workloadInput(24);
    ExactAttentionOptions options;
    options.causal = true;
    const Matrix out = exactAttention(input, options);
    for (std::size_t c = 0; c < 64; ++c) {
        EXPECT_NEAR(out(0, c), input.value(0, c), 1e-5);
    }
}

TEST(CausalTest, LastQueryMatchesUnmaskedAttention)
{
    const AttentionInput input = workloadInput(24);
    ExactAttentionOptions causal;
    causal.causal = true;
    const Matrix masked = exactAttention(input, causal);
    const Matrix full = exactAttention(input);
    // Query n-1 sees all keys either way.
    for (std::size_t c = 0; c < 64; ++c) {
        EXPECT_NEAR(masked(23, c), full(23, c), 1e-4);
    }
}

TEST(CausalTest, VisitedRowsHaveTriangularLengths)
{
    const AttentionInput input = workloadInput(12);
    ExactAttentionOptions options;
    options.causal = true;
    std::size_t visited = 0;
    exactAttention(input, options,
                   [&](std::size_t i, const std::vector<double>& row) {
                       ++visited;
                       EXPECT_EQ(row.size(), i + 1);
                       double sum = 0.0;
                       for (const double s : row) {
                           sum += s;
                       }
                       EXPECT_NEAR(sum, 1.0, 1e-9);
                   });
    EXPECT_EQ(visited, 12u);
}

TEST(CausalTest, ApproxCausalNeverSelectsFutureKeys)
{
    const AttentionInput input = workloadInput(48);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    const ApproxAttentionResult result = engine.runCausal(input, 0.2);
    // Per-query counts bounded by the visible prefix.
    for (std::size_t i = 0; i < 48; ++i) {
        EXPECT_LE(result.stats.candidates_per_query[i], i + 1);
        EXPECT_GE(result.stats.candidates_per_query[i], 1u);
    }
}

TEST(CausalTest, ApproxCausalMatchesExactWhenSelectingAll)
{
    const AttentionInput input = workloadInput(32);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    const ApproxAttentionResult approx = engine.runCausal(
        input, -std::numeric_limits<double>::infinity());
    ExactAttentionOptions options;
    options.causal = true;
    // Bit for bit: both run the same row kernel over keys [0, i].
    EXPECT_TRUE(approx.output == exactAttention(input, options));
}

TEST(CausalTest, EarlyQueriesUseFallbackMoreOften)
{
    // Early positions have few visible keys, so the filter is more
    // likely to come up empty there.
    const AttentionInput input = workloadInput(64);
    ApproxSelfAttention engine(makeHasher(), kThetaBias64);
    const ApproxAttentionResult result =
        engine.runCausal(input, 0.45);
    EXPECT_EQ(result.stats.candidates_per_query[0], 1u);
}

} // namespace
} // namespace elsa
