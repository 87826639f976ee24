/**
 * @file
 * elsa_perf: the host-performance benchmark program (README.md).
 *
 *   elsa_perf --workload attn_long --seed 1 --seconds 15 --trace 0
 *             [--smoke 1]
 *
 * Runs one workload at one pool thread (README.md: measurement
 * policy) and prints one JSON object of raw measurements
 * (item times, set-up times, per-layer times, exact counts, the
 * output fingerprint and its fields) on stdout. bench/perf/run.py
 * builds this binary, runs it and derives the reported metrics.
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common/args.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "harness.h"
#include "obs/json.h"
#include "workloads.h"

namespace elsa::perf {

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed, bool smoke)
{
    if (name == "attn_long") {
        return makeAttnLong(seed, smoke);
    }
    if (name == "attn_short_observed") {
        return makeAttnShortObserved(seed, smoke);
    }
    if (name == "fig11_sweep") {
        return makeFig11Sweep(seed, smoke);
    }
    if (name == "serve_overload") {
        return makeServeOverload(seed, smoke);
    }
    ELSA_FATAL("unknown --workload '" << name << "'");
}

namespace {

void
printReport(const std::string& name, std::uint64_t seed, bool traced,
            bool smoke, const RunReport& r)
{
    std::ostringstream os;
    obs::JsonWriter j(os, /*pretty=*/false);
    j.beginObject();
    j.kv("workload", name);
    j.kv("seed", static_cast<std::size_t>(seed));
    j.kv("traced", traced);
    j.kv("smoke", smoke);
    j.kv("attempted", static_cast<std::size_t>(r.attempted));
    j.kv("failed", static_cast<std::size_t>(r.failed));
    j.key("errors").beginArray();
    for (const std::string& e : r.errors) {
        j.value(e);
    }
    j.endArray();
    char fp[24];
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(r.fingerprint()));
    j.kv("fingerprint", fp);

    std::map<std::string, std::uint64_t> counts;
    j.key("fields").beginArray();
    for (std::size_t i = 0; i < r.reference.size(); ++i) {
        for (const Field& f : r.reference[i].fields()) {
            j.beginArray().value(i).value(f.name);
            j.value(static_cast<std::size_t>(f.value)).endArray();
            if (f.is_count) {
                counts[f.name] += f.value;
            }
        }
    }
    j.endArray();
    j.key("counts").beginObject();
    for (const auto& [key, value] : counts) {
        j.kv(key, static_cast<std::size_t>(value));
    }
    j.endObject();
    j.kv("setups", r.setups);
    j.kv("setup_s", r.setup_median_s);
    j.kv("passes", r.passes);
    j.key("item_best_s").beginArray();
    for (const double s : r.item_best_s) {
        j.value(s);
    }
    j.endArray();
    j.key("item_cycles").beginArray();
    for (const std::uint64_t c : r.item_cycles) {
        j.value(static_cast<std::size_t>(c));
    }
    j.endArray();
    j.kv("peak_rss_mib", r.peak_rss_mib);
    j.key("layers").beginObject();
    for (const auto& [layer, t] : r.layers) {
        j.key(layer).beginObject();
        j.kv("s", t.seconds);
        j.kv("calls", static_cast<std::size_t>(t.calls));
        j.kv("nested", t.nested);
        j.endObject();
    }
    j.endObject();
    j.key("extras").beginObject();
    for (const auto& [key, value] : r.extras) {
        j.kv(key, value);
    }
    j.endObject();
    j.kv("traced_jobs", r.traced_jobs);
    j.kv("traced_job_s", r.traced_job_s);
    j.kv("traced_pass_s", r.traced_pass_s);
    j.endObject();
    std::cout << os.str() << std::endl;
}

} // namespace

} // namespace elsa::perf

int
main(int argc, char** argv)
{
    using namespace elsa;
    try {
        const ArgParser args(argc, argv,
                             {"workload", "seed", "seconds", "trace",
                              "smoke"});
        ELSA_CHECK(args.has("workload"), "--workload is required");
        const std::string name = args.get("workload");
        const std::uint64_t seed = std::stoull(args.get("seed", "1"));
        const double seconds = args.getDouble("seconds", 10.0);
        const bool traced = args.getInt("trace", 0) != 0;
        const bool smoke = args.getInt("smoke", 0) != 0;
        ELSA_CHECK(seconds >= 0.0, "--seconds must be >= 0");
        ThreadPool::setGlobalThreads(1);

        auto workload = perf::makeWorkload(name, seed, smoke);
        const perf::RunReport report = perf::runWorkload(
            *workload, seconds, traced, smoke ? 1 : 3, smoke ? 1 : 101);
        perf::printReport(name, seed, traced, smoke, report);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "elsa_perf: %s\n", e.what());
        return 1;
    }
}
