/**
 * @file
 * Coverage tests for smaller API surfaces not exercised elsewhere:
 * window-edge cases, layer-construction errors, GPU-model argument
 * validation, and facade odds and ends.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "attention/blocked.h"
#include "attention/multihead.h"
#include "baselines/gpu_model.h"
#include "common/rng.h"
#include "elsa/elsa.h"
#include "sim/pipeline_model.h"
#include "workload/workload.h"

namespace elsa {
namespace {

TEST(BlockedWindowEdgeTest, ExactMultipleProducesEqualWindows)
{
    BlockedSelfAttention blocked({128});
    const auto ranges = blocked.windows(256);
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[1].second, 256u);
    EXPECT_THROW(blocked.windows(0), Error);
}

TEST(MultiHeadConstructionTest, RejectsZeroDimensions)
{
    Rng rng(1);
    EXPECT_THROW(MultiHeadAttention::makeRandom(0, 2, 64, rng), Error);
    EXPECT_THROW(MultiHeadAttention::makeRandom(128, 0, 64, rng),
                 Error);
    EXPECT_THROW(MultiHeadAttention::makeRandom(128, 2, 0, rng),
                 Error);
}

TEST(GpuModelValidationTest, RejectsNonPositiveScales)
{
    const GpuModel gpu;
    EXPECT_THROW(gpu.layerRuntime(bertLarge(), 384, 0.0, 1.0), Error);
    EXPECT_THROW(gpu.layerRuntime(bertLarge(), 384, 1.0, -1.0),
                 Error);
}

TEST(GpuModelValidationTest, LayerRuntimeComponentsPositive)
{
    const GpuModel gpu;
    const LayerRuntime rt = gpu.layerRuntime(sasRec(), 200);
    EXPECT_GT(rt.attention_s, 0.0);
    EXPECT_GT(rt.projection_s, 0.0);
    EXPECT_GT(rt.ffn_s, 0.0);
    EXPECT_NEAR(rt.total(),
                rt.attention_s + rt.projection_s + rt.ffn_s, 1e-18);
}

TEST(FacadeEdgeTest, ExactAttentionMatchesFreeFunction)
{
    Rng rng(3);
    Matrix q(8, 64);
    Matrix k(8, 64);
    Matrix v(8, 64);
    q.fillGaussian(rng);
    k.fillGaussian(rng);
    v.fillGaussian(rng);
    Elsa engine(64);
    const Matrix a = engine.attention(q, k, v);
    const Matrix b = exactAttention(AttentionInput{q, k, v});
    EXPECT_TRUE(a == b);
}

TEST(PipelineModelEdgeTest, SingleFactorHashIsDenseCost)
{
    // One "Kronecker factor" degenerates to the dense d x d product.
    EXPECT_EQ(hashMultiplications(64, 1), 64u * 64u);
    EXPECT_THROW(hashMultiplications(63, 3), Error);
}

TEST(WorkloadSpecTest, LabelFormat)
{
    const WorkloadSpec spec{bertLarge(), race()};
    EXPECT_EQ(spec.label(), "BERT/RACE");
}

TEST(StandardPGridTest, SortedAndPositive)
{
    const auto& grid = WorkloadRunner::standardPGrid();
    ASSERT_FALSE(grid.empty());
    for (std::size_t i = 1; i < grid.size(); ++i) {
        EXPECT_GT(grid[i], grid[i - 1]);
    }
    EXPECT_GT(grid.front(), 0.0);
}

} // namespace
} // namespace elsa
