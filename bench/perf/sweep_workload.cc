// fig11_sweep: the figure loop behind Fig. 11 and Fig. 13. Set-up
// builds one ElsaSystem per model-dataset pair and selects the modes'
// p (the fidelity grid, evaluated once per model and cached by the
// system). An item is ElsaSystem::evaluateMode for one (pair, mode),
// so a pass is what evaluateAllModes does for every pair.

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "elsa/system.h"
#include "workload/model.h"
#include "workloads.h"

namespace elsa::perf {

namespace {

/** What the sweep reports for one mode, from either call path. */
struct ModeOutcome
{
    double p = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t invocations = 0;
    double candidate_fraction = 0.0;
    double estimated_loss_pct = 0.0;
};

constexpr ApproxMode kModes[] = {ApproxMode::kBase,
                                 ApproxMode::kConservative,
                                 ApproxMode::kModerate,
                                 ApproxMode::kAggressive};

class SweepWorkload final : public Workload
{
  public:
    SweepWorkload(std::uint64_t seed, bool smoke) : seed_(seed)
    {
        // The evaluation sizes of the Fig. 11 / Fig. 13 benches.
        config_.eval.max_sublayers = smoke ? 1 : 6;
        config_.eval.num_train_inputs = smoke ? 1 : 3;
        config_.eval.num_eval_inputs = smoke ? 1 : 3;
        config_.sim_sublayers = smoke ? 1 : 6;
        config_.sim_inputs = smoke ? 1 : 6;
        // SASRec first: the harness warms up on item 0, and this is
        // the cheap one.
        specs_.push_back({sasRec(), movieLens1M()});
        if (!smoke) {
            specs_.push_back({bertLarge(), squadV11()});
        }
        outcomes_.resize(items());
    }

    void
    setup(LayerClock* clock) override
    {
        systems_.clear();
        for (const WorkloadSpec& spec : specs_) {
            {
                LayerClock::Scope s(clock, "elsa.system");
                systems_.push_back(
                    std::make_unique<ElsaSystem>(spec, config_, seed_));
            }
            for (const double p : WorkloadRunner::standardPGrid()) {
                LayerClock::Scope s(clock, "workload.evaluate");
                systems_.back()->fidelityAt(p);
            }
        }
    }

    std::size_t items() const override
    {
        return specs_.size() * std::size(kModes);
    }

    void
    run(std::size_t item, LayerClock* clock) override
    {
        ElsaSystem& system = *systems_[item / std::size(kModes)];
        ModeReport report;
        {
            LayerClock::Scope s(clock, "elsa.evaluate_mode");
            report = system.evaluateMode(kModes[item % std::size(kModes)]);
        }
        ModeOutcome& o = outcomes_[item];
        o.p = report.p;
        o.cycles = report.simulated_cycles;
        o.invocations = invocationsPerMode(system);
        o.candidate_fraction = report.candidate_fraction;
        o.estimated_loss_pct = report.estimated_loss_pct;
    }

    std::uint64_t
    check(std::size_t item, Record& record) override
    {
        const ModeOutcome& o = outcomes_[item];
        ELSA_CHECK(o.invocations >= 1 && o.cycles >= 1,
                   "mode simulated " << o.invocations << " invocations in "
                                     << o.cycles << " cycles");
        record.exactDouble("mode.p", o.p);
        record.count("sim.array_run.cycles", o.cycles);
        record.count("sim.array_run.invocations", o.invocations);
        record.exactDouble("mode.candidate_fraction", o.candidate_fraction);
        record.exactDouble("mode.estimated_loss_pct", o.estimated_loss_pct);
        return o.cycles;
    }

    // The split of elsa.evaluate_mode into its simulation's public
    // sub-calls, timed on a replay outside the traced job (so that job
    // does exactly the untraced work). The replay copies the
    // simulation half of ElsaSystem::simulateAtP; it must reproduce
    // each mode's cycles, invocations and candidate fraction, so the
    // copy cannot drift from the library unnoticed.
    std::map<std::string, double>
    traceExtras(double seconds) override
    {
        std::map<std::string, double> best;
        const double start = hostSeconds();
        do {
            LayerClock clock;
            for (std::size_t item = 0; item < items(); ++item) {
                const ModeOutcome o = replay(item, clock);
                const ModeOutcome& want = outcomes_[item];
                ELSA_CHECK(o.cycles == want.cycles
                               && o.invocations == want.invocations
                               && o.candidate_fraction
                                      == want.candidate_fraction,
                           "replay of item "
                               << item << " simulated " << o.cycles
                               << " cycles in " << o.invocations
                               << " invocations, evaluateMode "
                               << want.cycles << " in "
                               << want.invocations);
            }
            for (const auto& [layer, t] : clock.layers()) {
                const auto [it, fresh] = best.emplace(layer + ".s", t.seconds);
                if (!fresh) {
                    it->second = std::min(it->second, t.seconds);
                }
                best[layer + ".calls"] = static_cast<double>(t.calls);
            }
        } while (hostSeconds() - start < seconds);
        return best;
    }

  private:
    std::uint64_t
    invocationsPerMode(const ElsaSystem& system) const
    {
        return config_.sim_inputs
               * system.runner()
                     .representativeSublayers(config_.sim_sublayers)
                     .size();
    }

    // The simulation of one item through its public sub-calls, each
    // timed (the mode's p comes from the fidelity cache set-up filled).
    ModeOutcome
    replay(std::size_t item, LayerClock& clock) const
    {
        const ElsaSystem& system = *systems_[item / std::size(kModes)];
        const WorkloadRunner& runner = system.runner();
        const double p = outcomes_[item].p;
        std::vector<SimInvocation> invocations;
        {
            LayerClock::Scope s(&clock, "workload.sim_invocations");
            invocations = runner.simInvocations(p, config_.sim_inputs,
                                                config_.sim_sublayers,
                                                config_.eval);
        }
        std::vector<const AttentionInput*> inputs;
        std::vector<double> thresholds;
        for (const SimInvocation& inv : invocations) {
            inputs.push_back(&inv.input);
            thresholds.push_back(inv.threshold);
        }
        std::unique_ptr<AcceleratorArray> array;
        {
            LayerClock::Scope s(&clock, "sim.array");
            array = std::make_unique<AcceleratorArray>(
                config_.sim, config_.num_accelerators,
                runner.engine().hasher(),
                runner.engine().cosineLut().thetaBias());
        }
        ArrayRunResult result;
        {
            LayerClock::Scope s(&clock, "sim.array_run");
            result = array->run(inputs, thresholds);
        }
        ModeOutcome o;
        o.cycles = result.total_cycles;
        o.invocations = result.num_invocations;
        o.candidate_fraction = result.mean_candidate_fraction;
        return o;
    }

    std::uint64_t seed_;
    SystemConfig config_;
    std::vector<WorkloadSpec> specs_;
    std::vector<std::unique_ptr<ElsaSystem>> systems_;
    std::vector<ModeOutcome> outcomes_;
};

} // namespace

std::unique_ptr<Workload>
makeFig11Sweep(std::uint64_t seed, bool smoke)
{
    return std::make_unique<SweepWorkload>(seed, smoke);
}

} // namespace elsa::perf
