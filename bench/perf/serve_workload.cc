// serve_overload: one item is ServeEngine::run of one cell of the
// canonical overload scenario (load x policy).

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "serve/arrival.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "workloads.h"

namespace elsa::perf {

namespace {

struct Cell
{
    double load = 1.0;
    bool degraded = false;
};

class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, bool smoke) : seed_(seed)
    {
        requests_ = smoke ? 2000 : 100000;
        for (const double load : {0.6, 1.0, 2.0}) {
            for (const bool degraded : {false, true}) {
                cells_.push_back({load, degraded});
            }
        }
        if (smoke) {
            cells_.resize(1);
        }
        results_.resize(cells_.size());
    }

    void
    setup(LayerClock* clock) override
    {
        engines_.clear();
        for (const Cell& cell : cells_) {
            ServeConfig config =
                overloadScenario(cell.load, cell.degraded, false);
            config.num_requests = requests_;
            config.seed ^= seed_ * 0x9e3779b97f4a7c15ULL;
            LayerClock::Scope s(clock, "serve.catalog");
            engines_.push_back(std::make_unique<ServeEngine>(config));
        }
    }

    std::size_t items() const override { return cells_.size(); }

    void
    run(std::size_t item, LayerClock* clock) override
    {
        LayerClock::Scope s(clock, "serve.run");
        results_[item] = engines_[item]->run();
    }

    std::uint64_t
    check(std::size_t item, Record& record) override
    {
        const ServeResult& r = results_[item];
        ELSA_CHECK(r.conservesOffered(),
                   "offered " << r.offered << " != admitted "
                              << r.admitted << " + rejected "
                              << r.rejected);
        ELSA_CHECK(r.conservesAdmitted(),
                   "admitted " << r.admitted << " != completed "
                               << r.completed << " + shed " << r.shed
                               << " + failed " << r.failed);
        ELSA_CHECK(r.offered == requests_,
                   "offered " << r.offered << ", want " << requests_);
        std::uint64_t dispatched = 0;
        for (const ServeLevelStats& level : r.levels) {
            dispatched += level.dispatched;
        }
        record.count("serve.offered", r.offered);
        record.count("serve.admitted", r.admitted);
        record.count("serve.rejected", r.rejected);
        record.count("serve.completed", r.completed);
        record.count("serve.shed", r.shed);
        record.count("serve.failed", r.failed);
        record.count("serve.slo_violations", r.slo_violations);
        record.count("serve.retry_attempts", r.retry_attempts);
        record.count("serve.faulty_attempts", r.faulty_attempts);
        record.count("serve.dispatched", dispatched);
        record.count("serve.span_cycles", r.span_cycles);
        record.exact("serve.degradation_transitions",
                     r.degradation_transitions);
        std::vector<std::uint64_t> catalog;
        for (const ServiceCatalogEntry& e : engines_[item]->catalog()) {
            catalog.push_back(e.service_cycles);
        }
        record.exactBytes("serve.catalog_cycles", catalog.data(),
                          catalog.size() * sizeof(std::uint64_t));
        return r.span_cycles;
    }

    std::map<std::string, double>
    traceExtras(double seconds) override
    {
        // generateArrivals runs inside ServeEngine::run; timed on its
        // own here so the traced job stays the same work as a pass.
        double best = std::numeric_limits<double>::infinity();
        const double start = hostSeconds();
        do {
            double pass = 0.0;
            for (const auto& engine : engines_) {
                const double t0 = hostSeconds();
                const std::size_t n =
                    generateArrivals(engine->config()).size();
                pass += hostSeconds() - t0;
                ELSA_CHECK(n == requests_,
                           "generated " << n << " arrivals");
            }
            best = std::min(best, pass);
        } while (hostSeconds() - start < seconds);
        return {{"serve.arrivals.s", best},
                {"serve.arrivals.calls",
                 static_cast<double>(engines_.size())}};
    }

  private:
    std::uint64_t seed_;
    std::size_t requests_ = 0;
    std::vector<Cell> cells_;
    std::vector<std::unique_ptr<ServeEngine>> engines_;
    std::vector<ServeResult> results_;
};

} // namespace

std::unique_ptr<Workload>
makeServeOverload(std::uint64_t seed, bool smoke)
{
    return std::make_unique<ServeWorkload>(seed, smoke);
}

} // namespace elsa::perf
