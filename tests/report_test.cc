/**
 * @file
 * Tests for the simulator reporting utilities: per-query interval
 * collection and utilization computation.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "common/rng.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "sim/accelerator.h"
#include "sim/pipeline_model.h"
#include "sim/report.h"

namespace elsa {
namespace {

AttentionInput
randomInput(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    AttentionInput input;
    input.query = Matrix(n, 64);
    input.key = Matrix(n, 64);
    input.value = Matrix(n, 64);
    input.query.fillGaussian(rng);
    input.key.fillGaussian(rng);
    input.value.fillGaussian(rng);
    return input;
}

std::shared_ptr<const SrpHasher>
makeHasher()
{
    Rng rng(3);
    return std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
}

RunResult
tracedRun(double threshold, std::size_t n = 96)
{
    SimConfig config = SimConfig::paperConfig();
    config.collect_query_trace = true;
    Accelerator accel(config, makeHasher(), kThetaBias64);
    return accel.run(randomInput(n, 7), threshold);
}

TEST(ReportTest, TraceDisabledByDefault)
{
    Accelerator accel(SimConfig::paperConfig(), makeHasher(),
                      kThetaBias64);
    const RunResult result = accel.run(randomInput(32, 1), 0.2);
    EXPECT_TRUE(result.query_intervals.empty());
    EXPECT_TRUE(result.query_candidates.empty());
}

TEST(ReportTest, TraceHasOneIntervalPerQuery)
{
    const RunResult result = tracedRun(0.2);
    ASSERT_EQ(result.query_intervals.size(), 96u);
    const std::size_t division =
        divisionCyclesPerQuery(SimConfig::paperConfig());
    std::size_t interval_sum = 0;
    for (const std::size_t interval : result.query_intervals) {
        // The interval also hides the previous query's division.
        EXPECT_GE(interval, division);
        interval_sum += interval;
    }
    // Intervals plus the final division drain = execute cycles.
    EXPECT_EQ(interval_sum + division, result.execute_cycles);
    ASSERT_EQ(result.query_candidates.size(), 96u);
    for (std::size_t i = 0; i < 96; ++i) {
        EXPECT_EQ(result.query_candidates[i].size(),
                  result.candidates_per_query[i]);
    }
}

TEST(ReportTest, FallbackSelectsOneCandidatePerQuery)
{
    const RunResult result = tracedRun(1e9); // Nothing passes.
    for (const std::size_t candidates : result.candidates_per_query) {
        EXPECT_EQ(candidates, 1u);
    }
    EXPECT_EQ(result.empty_selections, 96u);
}

TEST(ReportTest, UtilizationWithinUnitInterval)
{
    const RunResult result = tracedRun(
        -std::numeric_limits<double>::infinity());
    const UtilizationReport util = computeUtilization(result);
    for (const HwModule module : allHwModules()) {
        EXPECT_GE(util.get(module), 0.0);
        EXPECT_LE(util.get(module), 1.0);
    }
    // In base mode, the attention modules are the busiest compute.
    EXPECT_GT(util.get(HwModule::kAttentionCompute), 0.5);
    const std::string text = formatUtilization(util);
    EXPECT_NE(text.find("Attention"), std::string::npos);
}

} // namespace
} // namespace elsa
