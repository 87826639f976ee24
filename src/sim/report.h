#ifndef ELSA_SIM_REPORT_H_
#define ELSA_SIM_REPORT_H_

/**
 * @file
 * Post-run reporting utilities for the cycle-level simulator, built
 * on the observability layer: RunResult -> StatsRegistry publishing,
 * per-module utilization, the bottleneck report, and the telemetry,
 * spans and bundle writers (the role a stats dump plays in a
 * full-system simulator).
 *
 * publishRunStats() is the single RunResult -> metrics mapping; the
 * utilization report and the JSON stats dump both read from it, so
 * the numbers in `stats.json` and in formatUtilization() can never
 * drift apart.
 */

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "energy/energy_model.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "sim/accelerator.h"

namespace elsa::obs {
class QuerySpanSet;
class RunManifest;
} // namespace elsa::obs

namespace elsa {

/**
 * Publish one run's counters into a stats registry under the given
 * prefix (e.g. "sim.accel0"):
 *
 *   <prefix>.cycles.{preprocess,execute,total}      counters
 *   <prefix>.<module>.active_cycles                 counters
 *   <prefix>.candidate.{stalls,fallbacks,selected}  counters
 *   <prefix>.invocations                            counter
 *   <prefix>.stall.<module>.<cause>_cycles          counters**
 *   <prefix>.stall.<module>.lane_cycles             counters**
 *   <prefix>.query.interval_cycles                  distribution*
 *   <prefix>.query.candidate_fraction               histogram*
 *   <prefix>.latency.cycles_digest                  digest***
 *   <prefix>.query.interval_cycles_digest           digest***
 *   <prefix>.span.<module>.{queue_wait,service,stall}_cycles ****
 *   <prefix>.span.<module>.{queue_wait,service,stall}_digest ****
 *   <prefix>.span.query.total_cycles_digest         digest****
 *
 * (* only when the run recorded per-query intervals
 * (SimConfig::collect_query_trace); ** only when
 * SimConfig::attribute_stalls produced a breakdown -- causes are
 * busy / starved / backpressured / bank_conflict / drained over the
 * six attributed module classes of sim/stall.h, and the cause sum
 * equals lane_cycles exactly; *** only when the run carried
 * telemetry, so telemetry-off dumps stay byte-identical -- the
 * interval digest additionally needs per-query intervals; **** only
 * when the run carried spans (SimConfig::query_spans), derived from
 * the per-query span totals/digests over every query of the run.)
 * Counters accumulate across calls so an AcceleratorArray batch
 * lands in one coherent set of totals.
 */
void publishRunStats(const RunResult& result,
                     obs::StatsRegistry& registry,
                     const std::string& prefix);

/**
 * Serialize one run's (or batch's) cycle-domain telemetry as the
 * `telemetry.json` document of docs/OBSERVABILITY.md: bin width and
 * channel arrays from `series`, totals and latency digests read
 * back from `registry` under `prefix`, and per-bin energy derived
 * from the `activity.*` channels through the energy model at
 * `config`'s clock. When `query_intervals` is non-null the raw
 * per-query intervals are embedded (capped) so report tooling can
 * draw a latency histogram with the digest percentiles overlaid.
 *
 * The stall-channel bin sums equal the corresponding
 * `<prefix>.stall.*` counters exactly (integer conservation;
 * enforced by scripts/check_metrics.py and tests/telemetry_test.cc).
 */
void writeTelemetryJson(std::ostream& os,
                        const obs::TimeSeries& series,
                        const obs::StatsRegistry& registry,
                        const std::string& prefix,
                        const SimConfig& config,
                        const std::vector<std::size_t>*
                            query_intervals = nullptr);

/**
 * The `<prefix>.span.<module>.<field>` metric name of one per-query
 * span component (see publishRunStats above). The single place that
 * composes span metric names, so the grammar and the documented name
 * set stay checkable by tools/lint/elsa_lint.py (field literals at
 * call sites must appear in docs/OBSERVABILITY.md).
 */
std::string spanMetricName(const std::string& prefix,
                           AttributedModule module, const char* field);

/**
 * Serialize finalized per-query lifecycle spans as the `spans.json`
 * document of docs/OBSERVABILITY.md: stage/cause name tables,
 * per-invocation roll-ups, exact per-stage component totals,
 * per-stage streaming digests over every query, and the retained
 * exemplar records (K slowest + one per latency decile) with their
 * full queue-wait / service / stall-by-cause decomposition.
 *
 * Invariants carried by the document (validated by
 * scripts/check_metrics.py and tests/span_test.cc): every exemplar's
 * component sum equals its end-to-end cycles exactly, and the
 * per-stage totals reconcile against the `<prefix>.stall.*` counters
 * of stats.json. Serialization is deterministic, so the bytes are
 * identical at any thread count.
 */
void writeSpansJson(std::ostream& os, const obs::QuerySpanSet& spans,
                    const std::string& prefix,
                    const SimConfig& config);

/** Per-module utilization (active cycles / total cycles). */
struct UtilizationReport
{
    /** Utilization in [0, 1] per module, indexed like allHwModules(). */
    std::vector<double> utilization;

    UtilizationReport()
        : utilization(allHwModules().size(), 0.0)
    {
    }

    double get(HwModule module) const
    {
        return utilization[static_cast<std::size_t>(module)];
    }
};

/**
 * Compute per-module utilization from a run result. Implemented on
 * top of publishRunStats(): the run is published into a scratch
 * registry and the utilization derived from the dumped counters.
 */
UtilizationReport computeUtilization(const RunResult& result);

/**
 * Utilization from already-published registry counters: reads
 * <prefix>.<module>.active_cycles / <prefix>.cycles.total.
 */
UtilizationReport
utilizationFromRegistry(const obs::StatsRegistry& registry,
                        const std::string& prefix);

/** Render a human-readable utilization summary. */
std::string formatUtilization(const UtilizationReport& report);

/**
 * Which pipeline module limits this run, and by how much.
 *
 * The limiting module is the attributed module class with the
 * highest busy fraction (busy lane cycles / its total lane cycles):
 * in a pipeline whose interval is the max over stage times, the
 * stage closest to fully busy is the one every other stage waits
 * for. `headroom` (1 - busy fraction) is how much faster the run
 * could get before that module saturates -- speeding up anything
 * else first is wasted effort (the Fig. 11 / Section IV-D argument).
 */
struct BottleneckReport
{
    /** False when the run carried no attribution data. */
    bool valid = false;

    /** The limiting module (highest busy fraction). */
    AttributedModule limiting = AttributedModule::kAttention;

    /** Busy fraction of the limiting module, in [0, 1]. */
    double busy_fraction = 0.0;

    /** 1 - busy_fraction of the limiting module. */
    double headroom = 1.0;

    /** Busy fraction per module, indexed by AttributedModule. */
    std::array<double, kNumAttributedModules> module_busy_fraction{};

    /** Dominant idle cause per module (ties -> lowest enum value). */
    std::array<StallCause, kNumAttributedModules> dominant_idle_cause{};
};

/** Derive the bottleneck report from an attributed breakdown. */
BottleneckReport computeBottleneck(const StallBreakdown& breakdown);

/** Convenience overload reading RunResult::stall_breakdown. */
BottleneckReport computeBottleneck(const RunResult& result);

/** Render a human-readable bottleneck summary. */
std::string formatBottleneckReport(const BottleneckReport& report);

/**
 * Write the standard observability bundle into `dir` (created if
 * missing): stats.json + stats.csv (registry dumps), telemetry.json
 * (when the result carries telemetry), spans.json (when it carries
 * spans), and manifest.json. The caller seeds `manifest` with its
 * tool name, build info, and config section; this helper appends the
 * shared metrics / utilization / bottleneck sections so quickstart's
 * --obs-dir and elsa_bench's --report emit the same layout from one
 * implementation. Returns the bottleneck report for callers that
 * print it. Trace files are the caller's business (only quickstart
 * records one).
 */
BottleneckReport writeObsBundle(const std::string& dir,
                                const obs::StatsRegistry& registry,
                                const RunResult& result,
                                const SimConfig& config,
                                obs::RunManifest& manifest,
                                const std::string& prefix
                                = "sim.accel0");

} // namespace elsa

#endif // ELSA_SIM_REPORT_H_
