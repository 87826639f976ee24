// attn_long and attn_short_observed: one Accelerator::run per item.

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "elsa/elsa.h"
#include "obs/registry.h"
#include "sim/accelerator.h"
#include "sim/report.h"
#include "workload/generator.h"
#include "workload/model.h"
#include "workloads.h"

namespace elsa::perf {

namespace {

constexpr const char* kStatsPrefix = "sim.accel0";

struct AttnSpec
{
    ModelConfig model;
    std::size_t n = 0;
    std::size_t invocations = 0;
    double p = 2.0;
    /** Stall attribution, telemetry and query spans on, stats
     *  attached. */
    bool observed = false;
};

class AttnWorkload final : public Workload
{
  public:
    AttnWorkload(AttnSpec spec, std::uint64_t seed)
        : spec_(std::move(spec)), seed_(seed)
    {
    }

    void
    setup(LayerClock* clock) override
    {
        {
            LayerClock::Scope s(clock, "elsa.engine");
            engine_ = std::make_unique<Elsa>(spec_.model.head_dim,
                                             seed_ ^ 0x9e3779b97f4a7c15ULL);
        }
        // Sublayers are evenly spaced and the same for every seed, so
        // seeds change the draws but not the layer profiles (and with
        // them the candidate fraction) a run is made of.
        const QkvGenerator generator(spec_.model, seed_);
        const std::size_t sublayers = spec_.model.numSublayers();
        inputs_.clear();
        thresholds_.clear();
        for (std::size_t i = 0; i < spec_.invocations; ++i) {
            const std::size_t flat = i * sublayers / spec_.invocations;
            LayerClock::Scope s(clock, "workload.generate");
            inputs_.push_back(generator.generate(
                flat / spec_.model.num_heads, flat % spec_.model.num_heads,
                spec_.n, i));
        }
        for (const AttentionInput& input : inputs_) {
            LayerClock::Scope s(clock, "attention.learn_threshold");
            thresholds_.push_back(
                engine_->learnThreshold(input.query, input.key, spec_.p));
        }
        {
            LayerClock::Scope s(clock, "sim.accelerator");
            accel_ = std::make_unique<Accelerator>(
                simConfig(spec_.observed), engine_->hasher(),
                engine_->thetaBias());
        }
        // Untraced runs publish from inside run(); traced runs detach
        // the registry and time publishRunStats on its own.
        stats_.reset();
        if (spec_.observed && clock == nullptr) {
            accel_->attachStats(&stats_, kStatsPrefix);
        }
    }

    std::size_t items() const override { return spec_.invocations; }

    void
    run(std::size_t item, LayerClock* clock) override
    {
        {
            LayerClock::Scope s(clock, "sim.run");
            last_ = accel_->run(inputs_[item], thresholds_[item]);
        }
        if (spec_.observed && clock != nullptr) {
            LayerClock::Scope s(clock, "obs.publish");
            publishRunStats(last_, stats_, kStatsPrefix);
        }
    }

    std::uint64_t
    check(std::size_t item, Record& record) override
    {
        const RunResult& r = last_;
        const std::size_t n = inputs_[item].n();
        ELSA_CHECK(r.candidates_per_query.size() == n
                       && r.output.rows() == n,
                   "run result covers " << r.candidates_per_query.size()
                                        << " queries, want " << n);
        if (spec_.observed) {
            ELSA_CHECK(r.stall_breakdown.conserves(r.totalCycles(),
                                                   accel_->config()),
                       "stall breakdown does not conserve lane cycles");
            ELSA_CHECK(r.telemetry != nullptr && r.spans != nullptr,
                       "observed run carries no telemetry or spans");
        }
        std::uint64_t candidates = 0;
        for (const std::size_t c : r.candidates_per_query) {
            candidates += c;
        }
        record.count("sim.run.queries", n);
        record.count("sim.run.pairs", n * n);
        record.count("sim.run.candidates", candidates);
        record.count("sim.run.cycles", r.totalCycles());
        record.count("sim.run.stall_cycles", r.stall_cycles);
        record.count("sim.run.fallbacks", r.empty_selections);
        record.exact("sim.run.preprocess_cycles", r.preprocess_cycles);
        record.exactBytes("sim.run.candidates_per_query",
                          r.candidates_per_query.data(),
                          n * sizeof(std::size_t));
        record.exactBytes("sim.run.output", r.output.data(),
                          r.output.size() * sizeof(float));
        if (spec_.observed) {
            std::vector<std::uint64_t> cells;
            for (const AttributedModule m : allAttributedModules()) {
                for (const StallCause c : allStallCauses()) {
                    cells.push_back(r.stall_breakdown.get(m, c));
                }
            }
            record.exactBytes("sim.run.stall_breakdown", cells.data(),
                              cells.size() * sizeof(std::uint64_t));
        }
        return r.totalCycles();
    }

    std::map<std::string, double>
    traceExtras(double seconds) override
    {
        if (!spec_.observed) {
            return {};
        }
        // The recorders' cost: the same inputs through a twin
        // accelerator with them off, interleaved so drift hits both.
        const Accelerator on(simConfig(true), engine_->hasher(),
                             engine_->thetaBias());
        const Accelerator off(simConfig(false), engine_->hasher(),
                              engine_->thetaBias());
        const double inf = std::numeric_limits<double>::infinity();
        std::vector<double> best_on(inputs_.size(), inf);
        std::vector<double> best_off(inputs_.size(), inf);
        const double start = hostSeconds();
        do {
            for (std::size_t i = 0; i < inputs_.size(); ++i) {
                const double t0 = hostSeconds();
                on.run(inputs_[i], thresholds_[i]);
                const double t1 = hostSeconds();
                off.run(inputs_[i], thresholds_[i]);
                const double t2 = hostSeconds();
                best_on[i] = std::min(best_on[i], t1 - t0);
                best_off[i] = std::min(best_off[i], t2 - t1);
            }
        } while (hostSeconds() - start < seconds);
        double sum_on = 0.0;
        double sum_off = 0.0;
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            sum_on += best_on[i];
            sum_off += best_off[i];
        }
        return {{"obs.recorders.overhead_s", sum_on - sum_off},
                {"obs.recorders.overhead_frac",
                 (sum_on - sum_off) / sum_off}};
    }

  private:
    static SimConfig
    simConfig(bool recorders)
    {
        SimConfig config = SimConfig::paperConfig();
        config.attribute_stalls = recorders;
        config.telemetry.enabled = recorders;
        config.query_spans.enabled = recorders;
        return config;
    }

    AttnSpec spec_;
    std::uint64_t seed_;
    std::unique_ptr<Elsa> engine_;
    std::vector<AttentionInput> inputs_;
    std::vector<double> thresholds_;
    std::unique_ptr<Accelerator> accel_;
    obs::StatsRegistry stats_;
    RunResult last_;
};

} // namespace

std::unique_ptr<Workload>
makeAttnLong(std::uint64_t seed, bool smoke)
{
    AttnSpec spec;
    spec.model = bertLarge();
    spec.n = smoke ? 128 : 512;
    spec.invocations = smoke ? 1 : 16;
    return std::make_unique<AttnWorkload>(spec, seed);
}

std::unique_ptr<Workload>
makeAttnShortObserved(std::uint64_t seed, bool smoke)
{
    AttnSpec spec;
    spec.model = sasRec();
    spec.n = 128;
    spec.invocations = smoke ? 1 : 48;
    spec.observed = true;
    return std::make_unique<AttnWorkload>(spec, seed);
}

} // namespace elsa::perf
