#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include <sys/resource.h>

#include "common/logging.h"
#include "obs/profile.h"
#include "obs/registry.h"

namespace elsa::perf {

namespace {

// Set-up is repeated until it has taken this long (up to the
// caller's maximum), so cheap set-ups get a steady median too.
constexpr double kSetupBudgetSeconds = 1.5;
constexpr std::size_t kMaxErrors = 16;

// The library's ELSA_PROF_SCOPE sites worth reporting, and the layer
// each is reported as. Each lies inside a timed public call.
const std::pair<const char*, const char*> kProfScopes[] = {
    {"host.lsh.hash_rows.seconds", "lsh.hash_rows"},
    {"host.threshold.observe.seconds", "attention.threshold_observe"},
    {"host.attention.key_norms.seconds", "attention.key_norms"},
};

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

void
foldU64(std::uint64_t value, std::uint64_t& hash)
{
    unsigned char bytes[8];
    for (int b = 0; b < 8; ++b) {
        bytes[b] = static_cast<unsigned char>(value >> (8 * b));
    }
    hash = fnv1a(bytes, sizeof(bytes), hash);
}

} // namespace

double
hostSeconds()
{
    // elsa-lint: allow(no-wallclock): this benchmark measures host seconds by definition; no simulated result depends on it
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch()).count();
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
fnv1a(const void* data, std::size_t bytes, std::uint64_t hash)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

void
Record::count(const std::string& name, std::uint64_t value)
{
    fields_.push_back(Field{name, value, true});
}

void
Record::exact(const std::string& name, std::uint64_t value)
{
    fields_.push_back(Field{name, value, false});
}

void
Record::exactDouble(const std::string& name, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    exact(name, bits);
}

void
Record::exactBytes(const std::string& name, const void* data,
                   std::size_t bytes)
{
    exact(name, fnv1a(data, bytes));
}

std::string
firstDifference(const Record& want, const Record& got)
{
    const auto& a = want.fields();
    const auto& b = got.fields();
    std::ostringstream os;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i].name != b[i].name) {
            os << "field " << i << ": want " << a[i].name << ", got "
               << b[i].name;
            return os.str();
        }
        if (a[i].value != b[i].value) {
            os << a[i].name << ": want " << a[i].value << ", got "
               << b[i].value;
            return os.str();
        }
    }
    if (a.size() != b.size()) {
        os << "field count: want " << a.size() << ", got " << b.size();
    }
    return os.str();
}

LayerClock::Scope::Scope(LayerClock* clock, const char* layer)
    : clock_(clock), layer_(layer)
{
    if (clock_ != nullptr) {
        start_ = hostSeconds();
    }
}

LayerClock::Scope::~Scope()
{
    if (clock_ != nullptr) {
        clock_->add(layer_, hostSeconds() - start_, 1);
    }
}

void
LayerClock::add(const std::string& layer, double seconds,
                std::uint64_t calls, bool nested)
{
    LayerTime& t = layers_[layer];
    t.seconds += seconds;
    t.calls += calls;
    t.nested = nested;
}

std::uint64_t
RunReport::fingerprint() const
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const Record& record : reference) {
        for (const Field& field : record.fields()) {
            hash = fnv1a(field.name.data(), field.name.size(), hash);
            foldU64(field.value, hash);
        }
    }
    return hash;
}

RunReport
runWorkload(Workload& workload, double seconds, bool traced,
            std::size_t min_setups, std::size_t max_setups)
{
    RunReport report;
    const double run_start = hostSeconds();
    // ELSA_PROF in the environment must not slow untraced runs.
    obs::setProfilingEnabled(false);

    auto fail = [&](const std::string& where, const std::string& what) {
        report.failed += 1;
        if (report.errors.size() < kMaxErrors) {
            report.errors.push_back(where + ": " + what);
        }
    };
    // One operation; false when it threw elsa::Error, which is
    // counted and reported as a failed operation.
    auto attempt = [&](const std::string& where, const auto& body) {
        report.attempted += 1;
        try {
            body();
            return true;
        } catch (const Error& e) {
            fail(where, e.what());
            return false;
        }
    };

    std::vector<double> setup_s;
    double setup_spent = 0.0;
    while (setup_s.size() < min_setups
           || (setup_spent < kSetupBudgetSeconds
               && setup_s.size() < max_setups)) {
        double dt = 0.0;
        const bool ok = attempt("setup", [&] {
            const double t0 = hostSeconds();
            workload.setup(nullptr);
            dt = hostSeconds() - t0;
        });
        if (!ok) {
            // Nothing can run without inputs; report what failed.
            report.peak_rss_mib = peakRssMiB();
            return report;
        }
        setup_s.push_back(dt);
        setup_spent += dt;
    }
    report.setups = setup_s.size();
    report.setup_median_s = median(setup_s);

    const std::size_t n = workload.items();
    report.item_best_s.assign(n, std::numeric_limits<double>::infinity());
    report.item_cycles.assign(n, 0);
    report.reference.assign(n, Record{});
    std::vector<bool> have_reference(n, false);

    // Runs one item; its host seconds, or a negative value on failure.
    auto runItem = [&](std::size_t item, LayerClock* clock) {
        const std::string where = "item " + std::to_string(item);
        double dt = -1.0;
        attempt(where, [&] {
            const double t0 = hostSeconds();
            workload.run(item, clock);
            const double t1 = hostSeconds();
            Record record;
            const std::uint64_t cycles = workload.check(item, record);
            if (!have_reference[item]) {
                report.reference[item] = std::move(record);
                report.item_cycles[item] = cycles;
                have_reference[item] = true;
                dt = t1 - t0;
                return;
            }
            const std::string diff =
                firstDifference(report.reference[item], record);
            if (!diff.empty()) {
                fail(where, diff);
                return;
            }
            dt = t1 - t0;
        });
        return dt;
    };

    // Traced runs split the budget: untraced passes first (the
    // overhead baseline), then the extras, then traced jobs.
    const double untraced_budget = traced ? 0.4 * seconds : seconds;
    runItem(0, nullptr); // warm-up
    const double measure_start = hostSeconds();
    do {
        for (std::size_t i = 0; i < n; ++i) {
            const double dt = runItem(i, nullptr);
            if (dt >= 0.0) {
                report.item_best_s[i] = std::min(report.item_best_s[i], dt);
            }
        }
        report.passes += 1;
    } while (hostSeconds() - measure_start < untraced_budget);

    if (traced) {
        attempt("trace extras", [&] {
            report.extras = workload.traceExtras(0.2 * seconds);
        });

        std::map<std::string, LayerTime> best;
        report.traced_job_s = std::numeric_limits<double>::infinity();
        report.traced_pass_s = std::numeric_limits<double>::infinity();
        obs::StatsRegistry& registry = obs::globalRegistry();
        obs::setProfilingEnabled(true);
        do {
            registry.reset();
            LayerClock clock;
            const double t0 = hostSeconds();
            if (!attempt("traced setup",
                         [&] { workload.setup(&clock); })) {
                break;
            }
            const double t1 = hostSeconds();
            for (std::size_t i = 0; i < n; ++i) {
                runItem(i, &clock);
            }
            const double t2 = hostSeconds();
            // A scope the library no longer has is simply absent.
            for (const auto& [metric, layer] : kProfScopes) {
                if (registry.contains(metric)) {
                    const auto stat = registry.distribution(metric).stat();
                    clock.add(layer,
                              static_cast<double>(stat.count())
                                  * stat.mean(),
                              stat.count(), /*nested=*/true);
                }
            }
            for (const auto& [layer, t] : clock.layers()) {
                auto [it, fresh] = best.emplace(layer, t);
                if (!fresh) {
                    it->second.seconds =
                        std::min(it->second.seconds, t.seconds);
                }
            }
            report.traced_job_s = std::min(report.traced_job_s, t2 - t0);
            report.traced_pass_s = std::min(report.traced_pass_s, t2 - t1);
            report.traced_jobs += 1;
        } while (hostSeconds() - run_start < seconds + setup_spent);
        obs::setProfilingEnabled(false);
        report.layers = std::move(best);
    }

    report.peak_rss_mib = peakRssMiB();
    return report;
}

} // namespace elsa::perf
