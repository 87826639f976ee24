#include "sim/accelerator.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bits.h"
#include "fault/fault.h"
#include "fixed/saturation.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/candidate_stage.h"
#include "sim/pipeline_model.h"
#include "sim/report.h"

namespace elsa {

namespace {

/** Trace thread ids: fixed module lanes, then one lane per bank. */
constexpr std::uint32_t kTidHash = 0;
constexpr std::uint32_t kTidNorm = 1;
constexpr std::uint32_t kTidDivision = 2;
constexpr std::uint32_t kTidBank0 = 3;

/** "q<i> <suffix>" without operator+ chains (GCC 12 -Wrestrict). */
std::string
queryEventName(std::size_t query, const char* suffix)
{
    std::string name = "q";
    name += std::to_string(query);
    name += ' ';
    name += suffix;
    return name;
}

/** "stall.<module>.<cause>" counter-track name. */
std::string
stallTrackName(AttributedModule module, StallCause cause)
{
    std::string name = "stall.";
    name += attributedModuleMetricName(module);
    name += '.';
    name += stallCauseMetricName(cause);
    return name;
}

/**
 * One query's pipeline interval (Fig. 9), as the timing loop produced
 * it. [begin, end()) holds the slowest bank's scan plus the attention
 * drain, overlapped with the next query's hash and the previous
 * query's output division. Every recorder is a fold over this record,
 * so none of them re-derives the interval.
 */
struct QueryInterval
{
    std::size_t query = 0;
    std::uint64_t begin = 0;
    std::uint64_t length = 0;
    /** The previous query's interval, which this query's hash
     *  overlapped; 0 for query 0 (hashed during preprocessing). */
    std::uint64_t prev_length = 0;
    /** True when a next query exists: the hash module computes its
     *  hash during this interval. */
    bool hashes_next = false;
    /** Each bank's scan exactly as simulateBankQuery returned it; a
     *  bank without keys keeps an all-zero trace. */
    std::vector<BankQueryTrace> banks;
    /** Bank holding the slowest scan open (ties -> lowest index). */
    std::size_t critical_bank = 0;
    /** Candidates selected, after the fallback. */
    std::size_t candidates = 0;
    /** Candidate-module stall cycles across banks. */
    std::size_t stalls = 0;
    /** The key the no-candidate fallback chose, when it fired. */
    std::optional<std::uint32_t> fallback_key;

    std::uint64_t end() const { return begin + length; }

    /** This query's output division starts when its interval ends,
     *  overlapping the next interval (or the tail after the last). */
    std::uint64_t divisionBegin() const { return end(); }
};

/** The stage of one attributed module in a per-query span record. */
template <typename Record>
auto&
spanStage(Record& record, AttributedModule module)
{
    return record.stages[static_cast<std::size_t>(module)];
}

/** A listed (cause, lane cycles) part of one module's tile. */
struct TilePart
{
    StallCause cause;
    std::uint64_t cycles;
};

/**
 * Folds one run into its recorders: the energy ActivityCounters, the
 * StallBreakdown, the telemetry TimeSeries, the QuerySpanSet, the
 * Chrome trace and the per-query interval list. preprocess() folds
 * the preprocessing phase, query() one QueryInterval (one method per
 * recorder), and finish() the division tail and the fault-retry
 * bubble. All of it is post-hoc arithmetic over already-simulated
 * quantities, so no recorder can perturb the simulated timing; an
 * optional recorder that is off costs one branch per query.
 */
class RunRecorder
{
  public:
    /** @param trace Writer to emit into; null unless tracing. */
    RunRecorder(const SimConfig& config, std::size_t n,
                RunResult& result, obs::TraceWriter* trace,
                std::uint32_t pid)
        : config_(config),
          n_(n),
          keys_per_bank_(ceilDiv(n, config.pa)),
          hash_cycles_(hashCyclesPerVector(config)),
          division_cycles_(divisionCyclesPerQuery(config)),
          result_(result),
          trace_(trace),
          pid_(pid)
    {
        if (config.telemetry.enabled) {
            result.telemetry = std::make_shared<obs::TimeSeries>(
                config.telemetry.bin_width_cycles);
            ts_ = result.telemetry.get();
            for (const AttributedModule module : allAttributedModules()) {
                for (const StallCause cause : allStallCauses()) {
                    // Like the stats counters, fault_retry channels
                    // exist only when fault injection ran.
                    if (cause == StallCause::kFaultRetry
                        && !result.fault.enabled) {
                        continue;
                    }
                    stall_ch_[static_cast<std::size_t>(module)]
                             [static_cast<std::size_t>(cause)] =
                        ts_->channel(stallTrackName(module, cause));
                }
            }
            for (const HwModule module : allHwModules()) {
                std::string name = "activity.";
                name += hwModuleMetricName(module);
                activity_ch_[static_cast<std::size_t>(module)] =
                    ts_->channel(name);
            }
            queue_ch_ = ts_->channel("queue.occupancy_cycles");
            queries_ch_ = ts_->channel("queries.completed");
        }
        if (config.query_spans.enabled) {
            std::vector<std::string> stage_names;
            std::vector<std::string> cause_names;
            for (const AttributedModule module : allAttributedModules()) {
                stage_names.emplace_back(
                    attributedModuleMetricName(module));
            }
            for (const StallCause cause : allStallCauses()) {
                cause_names.emplace_back(stallCauseMetricName(cause));
            }
            result.spans = std::make_shared<obs::QuerySpanSet>(
                std::move(stage_names), std::move(cause_names));
            spans_ = result.spans.get();
        }
    }

    /** Fold the preprocessing phase [0, preprocess_cycles). */
    void
    preprocess()
    {
        const std::uint64_t pre = result_.preprocess_cycles;
        const std::uint64_t pa = config_.pa;
        // Hash module: n key hashes + the first query hash.
        const std::uint64_t hash_busy = hash_cycles_ * (n_ + 1);
        // Norm module and the attention multipliers it borrows: one
        // key dot product per attention module per cycle.
        const std::uint64_t norm_cycles = ceilDiv(n_, config_.pa);

        addActivity(HwModule::kHashComputation,
                    static_cast<double>(hash_busy), 0, pre);
        addActivity(HwModule::kNormComputation, static_cast<double>(n_),
                    0, pre);
        addActivity(HwModule::kAttentionCompute,
                    static_cast<double>(norm_cycles), 0, pre);
        // SRAM traffic: key/value reads for hashing and norms, key
        // hash/norm writes.
        addActivity(HwModule::kKeyValueMemory,
                    static_cast<double>(norm_cycles), 0, pre);
        const double key_writes =
            static_cast<double>(n_) / (config_.pa * config_.pc);
        addActivity(HwModule::kKeyHashMemory, key_writes, 0, pre);
        addActivity(HwModule::kKeyNormMemory, key_writes, 0, pre);

        if (trace_ != nullptr) {
            trace_->completeEvent("preprocess: hash keys+q0",
                                  "preprocess", pid_, kTidHash, 0, pre);
            trace_->completeEvent("preprocess: key norms", "preprocess",
                                  pid_, kTidNorm, 0, norm_cycles);
        }

        if (!config_.attribute_stalls) {
            return;
        }
        // Hash module: after its hashes it sits on the finished first
        // query hash, waiting for execution to start draining it.
        tile(AttributedModule::kHash, 1, 0, pre,
             {{StallCause::kBusy, hash_busy}},
             StallCause::kBackpressured);
        // Norm module: occupied until its pipeline drains, then done
        // for the whole run.
        tile(AttributedModule::kNorm, 1, 0, pre,
             {{StallCause::kBusy,
               norm_cycles + config_.attention_pipeline_latency}},
             StallCause::kDrained);
        // The attention multipliers compute one key dot product per
        // key for the norms; the other execution modules wait for
        // the first query.
        tile(AttributedModule::kAttention, pa, 0, pre,
             {{StallCause::kBusy, n_}}, StallCause::kStarved);
        tile(AttributedModule::kCandidateSelection, pa * config_.pc, 0,
             pre, {}, StallCause::kStarved);
        tile(AttributedModule::kArbitration, pa, 0, pre, {},
             StallCause::kStarved);
        tile(AttributedModule::kOutputDivision, 1, 0, pre, {},
             StallCause::kStarved);
    }

    /** Fold one query's interval, in query order. */
    void
    query(const QueryInterval& q)
    {
        foldResult(q);
        // Attribution first: the trace's counter tracks read it.
        if (config_.attribute_stalls) {
            foldStalls(q);
        }
        if (spans_ != nullptr) {
            foldSpan(q);
        }
        if (ts_ != nullptr) {
            foldTelemetry(q);
        }
        if (trace_ != nullptr) {
            foldTrace(q);
        }
        foldActivity(q);
    }

    /**
     * Fold the tail after the last interval, which ends at `cursor`:
     * the last query's division, then the fault-retry bubble. Detected
     * faults freeze the whole pipeline while their words are
     * re-fetched: one global bubble, conservatively serialized (no
     * overlap with useful work), zero unless fault injection ran.
     */
    void
    finish(std::uint64_t cursor)
    {
        const std::uint64_t bubble = result_.fault.retry_stall_cycles;
        if (config_.attribute_stalls) {
            // Everything but the divider has finished when the tail
            // starts; the bubble then freezes every lane.
            const std::uint64_t tail_end = cursor + division_cycles_;
            for (const AttributedModule module : allAttributedModules()) {
                const std::uint64_t lanes =
                    attributedModuleLanes(module, config_);
                tile(module, lanes, cursor, tail_end, {},
                     module == AttributedModule::kOutputDivision
                         ? StallCause::kBusy
                         : StallCause::kDrained);
                tile(module, lanes, tail_end, tail_end + bubble, {},
                     StallCause::kFaultRetry);
            }
            // The hard conservation invariant of sim/stall.h: the
            // tiles cover the whole run. Also enforced (in every
            // build type) by the attribution tests.
            ELSA_DASSERT(result_.stall_breakdown.conserves(
                             result_.totalCycles(), config_),
                         "stall-cause lane cycles do not sum to "
                             << result_.totalCycles()
                             << " total cycles");
        }
        if (spans_ == nullptr) {
            return;
        }
        // The bubble extends the last query's lifetime; charge it
        // where the run-level counters charge it too.
        if (bubble > 0 && n_ > 0) {
            spans_->addStallToLast(
                static_cast<std::size_t>(
                    AttributedModule::kOutputDivision),
                static_cast<std::size_t>(StallCause::kFaultRetry),
                bubble);
        }
        spans_->finalize(config_.query_spans.exemplar_count,
                         result_.totalCycles());
        if (trace_ == nullptr) {
            return;
        }
        // Flow arrows link each exemplar query's stages across the
        // trace lanes: hash start -> critical-bank scan start ->
        // division start, read back from the record's telescoping
        // components. The id is unique per (accelerator, query) so
        // arrays sharing one writer never cross-link.
        for (const obs::QuerySpanRecord& r : spans_->records()) {
            const obs::StageSpan& division =
                spanStage(r, AttributedModule::kOutputDivision);
            const std::uint64_t scan_ts =
                r.entry_cycle + spanStage(r, AttributedModule::kHash).service
                + spanStage(r, AttributedModule::kCandidateSelection)
                      .queue_wait;
            const std::uint64_t div_ts =
                r.exit_cycle - division.service - division.stallTotal();
            const std::uint64_t id =
                (static_cast<std::uint64_t>(pid_) << 32) | r.query;
            const auto bank = static_cast<std::uint32_t>(r.tag);
            trace_->flowEvent("query span", "span", pid_, kTidHash,
                              r.entry_cycle, id, 's');
            trace_->flowEvent("query span", "span", pid_,
                              kTidBank0 + bank, scan_ts, id, 't');
            trace_->flowEvent("query span", "span", pid_, kTidDivision,
                              div_ts, id, 'f');
        }
    }

  private:
    /** RunResult's per-query fields and the interval list. */
    void
    foldResult(const QueryInterval& q)
    {
        result_.candidates_per_query[q.query] = q.candidates;
        result_.stall_cycles += q.stalls;
        if (q.fallback_key) {
            ++result_.empty_selections;
        }
        if (config_.collect_query_trace) {
            result_.query_intervals.push_back(q.length);
        }
    }

    /** Stall attribution (sim/stall.h). */
    void
    foldStalls(const QueryInterval& q)
    {
        const std::uint64_t begin = q.begin;
        const std::uint64_t end = q.end();
        // Hash module: hashes the next query, then waits for the
        // slower stage holding the interval open; after the last
        // query there is nothing left to hash.
        if (q.hashes_next) {
            tile(AttributedModule::kHash, 1, begin, end,
                 {{StallCause::kBusy, hash_cycles_}},
                 StallCause::kBackpressured);
        } else {
            tile(AttributedModule::kHash, 1, begin, end, {},
                 StallCause::kDrained);
        }
        // Norm module: all of its work happened in preprocessing.
        tile(AttributedModule::kNorm, 1, begin, end, {},
             StallCause::kDrained);
        for (const BankQueryTrace& bank : q.banks) {
            // Candidate modules: scanning is work, a full queue is a
            // bank conflict (P_c modules vs one grant port),
            // done-scanning-while-queues-drain is drain-out, and after
            // the bank finishes (or, without keys, throughout) they
            // wait for the next query gated by the slowest bank.
            tile(AttributedModule::kCandidateSelection, config_.pc,
                 begin, end,
                 {{StallCause::kBusy, bank.scan_cycles},
                  {StallCause::kBankConflict, bank.stall_cycles},
                  {StallCause::kDrained, bank.drained_module_cycles}},
                 StallCause::kStarved);
            // Arbiter: one grant per cycle when any queue holds a
            // candidate; otherwise it waits on the scanners.
            const std::uint64_t grants = bank.grant_order.size();
            tile(AttributedModule::kArbitration, 1, begin, end,
                 {{StallCause::kBusy, grants}}, StallCause::kStarved);
            // Attention module: one granted candidate per cycle plus
            // the pipeline drain hand-off.
            const std::uint64_t attention_busy =
                grants > 0 ? grants + config_.attention_pipeline_latency
                           : 0;
            tile(AttributedModule::kAttention, 1, begin, end,
                 {{StallCause::kBusy, attention_busy}},
                 StallCause::kStarved);
        }
        // Output division: works on the previous query's row; the
        // first interval has nothing to divide yet.
        tile(AttributedModule::kOutputDivision, 1, begin, end,
             {{StallCause::kBusy, q.query > 0 ? division_cycles_ : 0}},
             StallCause::kStarved);
    }

    /**
     * Per-query lifecycle span (obs/span.h): an exact telescoping
     * decomposition of [entry, exit). The hash overlaps the previous
     * interval (query 0 hashes at the end of preprocessing), the
     * critical bank's scan splits into minimum scan time plus
     * backpressure delay plus arbiter drain-out, attention adds its
     * hand-off latency, and the division follows the interval. Each
     * component is the gap between two pipeline timestamps, so the
     * integer sum equals exit - entry exactly.
     */
    void
    foldSpan(const QueryInterval& q)
    {
        const BankQueryTrace& critical = q.banks[q.critical_bank];
        const std::uint64_t latency = config_.attention_pipeline_latency;
        // Every key takes exactly one module cycle to scan.
        const std::uint64_t base_scan =
            ceilDiv(critical.scan_cycles, config_.pc);
        const std::uint64_t hash_wait =
            q.query == 0 ? 0 : q.prev_length - hash_cycles_;

        obs::QuerySpanRecord record;
        record.query = q.query;
        record.entry_cycle = q.begin - hash_wait - hash_cycles_;
        record.exit_cycle = q.divisionBegin() + division_cycles_;
        record.tag = q.critical_bank;
        record.stages.resize(kNumAttributedModules);
        for (obs::StageSpan& stage : record.stages) {
            stage.stall.assign(kNumStallCauses, 0);
        }
        spanStage(record, AttributedModule::kHash).service = hash_cycles_;
        obs::StageSpan& select =
            spanStage(record, AttributedModule::kCandidateSelection);
        select.queue_wait = hash_wait;
        select.service = base_scan;
        select.stall[static_cast<std::size_t>(
            StallCause::kBankConflict)] =
            critical.scan_done_cycle - base_scan;
        spanStage(record, AttributedModule::kArbitration).service =
            critical.cycles - critical.scan_done_cycle;
        spanStage(record, AttributedModule::kAttention).service = latency;
        obs::StageSpan& division =
            spanStage(record, AttributedModule::kOutputDivision);
        division.queue_wait = q.length - (critical.cycles + latency);
        division.service = division_cycles_;
        spans_->addRecord(std::move(record));
    }

    /** Telemetry-only channels: queue depth integral over the
     *  interval and a completion mark in its last bin. */
    void
    foldTelemetry(const QueryInterval& q)
    {
        std::uint64_t occupancy = 0;
        for (const BankQueryTrace& bank : q.banks) {
            occupancy += bank.queue_occupancy_cycles;
        }
        ts_->addSpread(queue_ch_, q.begin, q.end(), occupancy);
        ts_->addAt(queries_ch_, q.length > 0 ? q.end() - 1 : q.begin,
                   1.0);
    }

    /** Chrome trace events; their order is part of trace.json. */
    void
    foldTrace(const QueryInterval& q)
    {
        for (std::size_t b = 0; b < q.banks.size(); ++b) {
            // A bank without keys never scans.
            if (q.banks[b].cycles > 0) {
                trace_->completeEvent(
                    queryEventName(q.query, "scan"), "execute", pid_,
                    kTidBank0 + static_cast<std::uint32_t>(b), q.begin,
                    q.banks[b].cycles);
            }
        }
        if (q.fallback_key) {
            const auto bank = static_cast<std::uint32_t>(
                *q.fallback_key / keys_per_bank_);
            trace_->instantEvent("fallback", pid_, kTidBank0 + bank,
                                 q.begin);
        }
        if (q.hashes_next) {
            trace_->completeEvent(queryEventName(q.query + 1, "hash"),
                                  "execute", pid_, kTidHash, q.begin,
                                  hash_cycles_);
        }
        trace_->completeEvent(queryEventName(q.query, "divide"),
                              "execute", pid_, kTidDivision,
                              q.divisionBegin(), division_cycles_);
        trace_->counterEvent("candidates", pid_, q.begin,
                             static_cast<double>(q.candidates));
        trace_->counterEvent("stall cycles", pid_, q.begin,
                             static_cast<double>(q.stalls));
        if (!config_.attribute_stalls) {
            return;
        }
        // Cumulative per-lane cause counters, one Perfetto track per
        // (module, cause); emitted only on change to bound the event
        // count.
        const StallBreakdown& causes = result_.stall_breakdown;
        for (const AttributedModule module : allAttributedModules()) {
            for (const StallCause cause : allStallCauses()) {
                const std::uint64_t now = causes.get(module, cause);
                if (now != traced_causes_.get(module, cause)) {
                    trace_->counterEvent(stallTrackName(module, cause),
                                         pid_, q.end(),
                                         static_cast<double>(now));
                }
            }
        }
        traced_causes_ = causes;
    }

    /** Energy-model activity (Fig. 13). */
    void
    foldActivity(const QueryInterval& q)
    {
        const std::uint64_t begin = q.begin;
        const std::uint64_t end = q.end();
        // Candidate modules and the hash/norm SRAMs they read run for
        // the scanned keys; the attention modules and the key/value
        // SRAM run one cycle per granted candidate.
        double scanned_keys = 0.0;
        for (const BankQueryTrace& bank : q.banks) {
            scanned_keys += static_cast<double>(bank.scan_cycles);
        }
        const double group_scan =
            scanned_keys / static_cast<double>(config_.pa * config_.pc);
        addActivity(HwModule::kCandidateSelection, group_scan, begin,
                    end);
        addActivity(HwModule::kKeyHashMemory, group_scan, begin, end);
        addActivity(HwModule::kKeyNormMemory, group_scan, begin, end);
        const double attention_cycles =
            static_cast<double>(q.candidates)
            / static_cast<double>(config_.pa);
        addActivity(HwModule::kAttentionCompute, attention_cycles, begin,
                    end);
        addActivity(HwModule::kKeyValueMemory, attention_cycles, begin,
                    end);
        // The energy model books the query's own division, with its
        // query read + output write traffic, in its own interval.
        const auto division = static_cast<double>(division_cycles_);
        addActivity(HwModule::kOutputDivision, division, begin, end);
        addActivity(HwModule::kQueryOutputMemory, 1.0 + division, begin,
                    end);
        if (q.hashes_next) {
            addActivity(HwModule::kHashComputation,
                        static_cast<double>(hash_cycles_), begin, end);
        }
    }

    /**
     * Attribute `lanes` x [begin, end) lane cycles of one module:
     * charge the listed parts, then give the remainder to `rest`, so
     * the module's causes sum to its lane cycles by construction.
     */
    void
    tile(AttributedModule module, std::uint64_t lanes,
         std::uint64_t begin, std::uint64_t end,
         std::initializer_list<TilePart> parts, StallCause rest)
    {
        std::uint64_t left = lanes * (end - begin);
        for (const TilePart& part : parts) {
            ELSA_DASSERT(part.cycles <= left,
                         attributedModuleName(module)
                             << " parts exceed " << lanes
                             << " lanes x " << end - begin
                             << " cycles");
            left -= part.cycles;
            charge(module, part.cause, part.cycles, begin, end);
        }
        charge(module, rest, left, begin, end);
    }

    /** Charge one (module, cause) cell and its telemetry channel. */
    void
    charge(AttributedModule module, StallCause cause,
           std::uint64_t lane_cycles, std::uint64_t begin,
           std::uint64_t end)
    {
        result_.stall_breakdown.add(module, cause, lane_cycles);
        if (ts_ != nullptr) {
            ts_->addSpread(stall_ch_[static_cast<std::size_t>(module)]
                                    [static_cast<std::size_t>(cause)],
                           begin, end, lane_cycles);
        }
    }

    /** Add energy-model activity and its telemetry channel. */
    void
    addActivity(HwModule module, double cycles, std::uint64_t begin,
                std::uint64_t end)
    {
        result_.activity.add(module, cycles);
        if (ts_ != nullptr) {
            ts_->addSpreadReal(
                activity_ch_[static_cast<std::size_t>(module)], begin,
                end, cycles);
        }
    }

    const SimConfig& config_;
    const std::size_t n_;
    const std::size_t keys_per_bank_;
    const std::uint64_t hash_cycles_;
    const std::uint64_t division_cycles_;
    RunResult& result_;
    obs::TraceWriter* const trace_;
    const std::uint32_t pid_;

    /** Null unless SimConfig::telemetry / query_spans is enabled. */
    obs::TimeSeries* ts_ = nullptr;
    obs::QuerySpanSet* spans_ = nullptr;
    /** Telemetry channel ids. */
    std::array<std::array<std::size_t, kNumStallCauses>,
               kNumAttributedModules>
        stall_ch_{};
    std::array<std::size_t, 9> activity_ch_{};
    std::size_t queue_ch_ = 0;
    std::size_t queries_ch_ = 0;
    /** Cause totals the trace's counter tracks already show. */
    StallBreakdown traced_causes_;
};

/**
 * Inject SimConfig::fault into the preprocessed state (fault/fault.h,
 * docs/ROBUSTNESS.md) and report what it did. The plan depends only on
 * (config, geometry), never on execution order, so faulted runs are
 * bit-reproducible at any thread count; faults strike the SRAMs after
 * preprocessing fills them. Detected words are repaired by the modeled
 * re-fetch (their cost is the report's retry stall cycles) and
 * corrected words are repaired in line, so only silent faults perturb
 * values. LUT faults corrupt per-run copies of the units; the model's
 * pristine units are never touched (Accelerator::run is const and
 * shared across threads).
 */
FaultReport
injectFaults(const SimConfig& config, FunctionalContext& ctx,
             const FunctionalModel& functional)
{
    FaultReport report;
    if (!config.fault.enabled || config.fault.bit_error_rate <= 0.0) {
        return report;
    }
    const std::size_t n = ctx.input.n();
    const std::size_t d = ctx.input.d();
    FaultGeometry geometry;
    geometry.n = n;
    geometry.k = config.k;
    geometry.d = config.d;
    geometry.lut_words = ExpUnit::kLutSize + ReciprocalUnit::kLutSize;
    const FaultPlan plan = FaultPlan::build(config.fault, geometry);
    std::shared_ptr<ExpUnit> exp_copy;
    std::shared_ptr<ReciprocalUnit> recip_copy;
    for (const WordFault& fault : plan.faults()) {
        if (fault.outcome != FaultOutcome::kSilent) {
            continue;
        }
        switch (fault.target) {
        case FaultTarget::kKeyHashMemory: {
            ELSA_ASSERT(fault.word < n, "hash fault word out of range");
            for (const std::uint8_t bit : fault.bits) {
                ctx.key_hashes.flipBit(fault.word, bit);
            }
            break;
        }
        case FaultTarget::kKeyNormMemory: {
            ELSA_ASSERT(fault.word < n, "norm fault word out of range");
            double norm = ctx.key_norms[fault.word];
            for (const std::uint8_t bit : fault.bits) {
                norm = flipFixedPointBit(norm, 4, 3, bit);
            }
            // max_norm stays pristine: the hardware computes it into a
            // register as norms stream in, before SRAM faults strike.
            ctx.key_norms[fault.word] = norm;
            break;
        }
        case FaultTarget::kKeyValueMemory: {
            // Words [0, n*d) are the key matrix, [n*d, 2*n*d) the
            // value matrix, row-major, one S5.3 element per word.
            ELSA_ASSERT(fault.word < 2 * n * d,
                        "key/value fault word out of range");
            const std::size_t element = fault.word % (n * d);
            Matrix& m = fault.word < n * d ? ctx.input.key
                                           : ctx.input.value;
            float* row = m.row(element / d);
            double value = static_cast<double>(row[element % d]);
            for (const std::uint8_t bit : fault.bits) {
                value = flipFixedPointBit(value, 5, 3, bit);
            }
            row[element % d] = static_cast<float>(value);
            break;
        }
        case FaultTarget::kLutTables: {
            // Words [0, 32) are the exp LUT, [32, 64) the reciprocal
            // LUT; corrupt a lazily-made copy of the affected unit.
            const int word = static_cast<int>(fault.word);
            if (word < ExpUnit::kLutSize) {
                if (!exp_copy) {
                    exp_copy = std::make_shared<ExpUnit>(
                        functional.expUnit());
                }
                double entry = exp_copy->lutEntry(word);
                for (const std::uint8_t bit : fault.bits) {
                    entry = flipLutFractionBit(entry, bit);
                }
                exp_copy->corruptEntry(word, entry);
            } else {
                const int index = word - ExpUnit::kLutSize;
                if (!recip_copy) {
                    recip_copy = std::make_shared<ReciprocalUnit>(
                        functional.reciprocalUnit());
                }
                double entry = recip_copy->lutEntry(index);
                for (const std::uint8_t bit : fault.bits) {
                    entry = flipLutFractionBit(entry, bit);
                }
                recip_copy->corruptEntry(index, entry);
            }
            break;
        }
        }
    }
    ctx.faulted_exp = std::move(exp_copy);
    ctx.faulted_recip = std::move(recip_copy);
    report.enabled = true;
    report.counts = plan.counts();
    report.retry_stall_cycles = plan.retryStallCycles(config.fault);
    return report;
}

} // namespace

double
RunResult::candidateFraction() const
{
    if (candidates_per_query.empty()) {
        return 0.0;
    }
    std::size_t total = 0;
    for (const auto c : candidates_per_query) {
        total += c;
    }
    const double n = static_cast<double>(candidates_per_query.size());
    return static_cast<double>(total) / (n * n);
}

Accelerator::Accelerator(SimConfig config,
                         std::shared_ptr<const SrpHasher> hasher,
                         double theta_bias)
    : config_(config),
      functional_(config, std::move(hasher), theta_bias)
{
    config_.validate();
}

void
Accelerator::attachStats(obs::StatsRegistry* registry,
                         std::string prefix)
{
    stats_ = registry;
    stats_prefix_ = std::move(prefix);
}

void
Accelerator::attachTrace(obs::TraceWriter* trace, std::uint32_t pid)
{
    trace_ = trace;
    trace_pid_ = pid;
    if (trace_ == nullptr || !trace_->enabled()) {
        return;
    }
    std::string process = "elsa.accel";
    process += std::to_string(trace_pid_);
    trace_->processName(trace_pid_, process);
    trace_->threadName(trace_pid_, kTidHash, "hash computation");
    trace_->threadName(trace_pid_, kTidNorm, "norm computation");
    trace_->threadName(trace_pid_, kTidDivision, "output division");
    for (std::size_t b = 0; b < config_.pa; ++b) {
        std::string lane = "bank ";
        lane += std::to_string(b);
        lane += " (candidate scan + attention)";
        trace_->threadName(trace_pid_,
                           kTidBank0 + static_cast<std::uint32_t>(b),
                           lane);
    }
}

RunResult
Accelerator::run(const AttentionInput& input, double threshold) const
{
    input.validate();
    const std::size_t n = input.n();
    const std::size_t pa = config_.pa;
    const std::size_t keys_per_bank = ceilDiv(n, pa);

    RunResult result;
    result.output = Matrix(n, config_.d);
    result.candidates_per_query.resize(n);
    if (config_.collect_query_trace) {
        result.query_candidates.resize(n);
    }

    // Datapath saturation counting (fixed/saturation.h): a counter
    // struct is attached to this thread for the run's duration; with
    // the flag off the hook stays detached and counts nothing.
    SaturationCounters saturation;
    std::optional<SaturationScope> saturation_scope;
    if (config_.count_saturations) {
        saturation_scope.emplace(&saturation);
    }

    // ---- Preprocessing phase (Section IV-C (2)) ----
    FunctionalContext ctx = functional_.preprocess(input);
    result.preprocess_cycles = preprocessingCycles(config_, n);
    result.fault = injectFaults(config_, ctx, functional_);

    // Pipeline tracing is opt-in twice over (config flag + attached
    // writer) and, when off, costs one branch per query.
    const bool tracing =
        config_.emit_trace && trace_ != nullptr && trace_->enabled();
    RunRecorder recorder(config_, n, result, tracing ? trace_ : nullptr,
                         trace_pid_);
    recorder.preprocess();

    // ---- Execution phase: one pipeline interval per query ----
    const std::size_t hash_per_vec = hashCyclesPerVector(config_);
    const std::size_t division_cycles = divisionCyclesPerQuery(config_);
    QueryInterval q;
    q.begin = result.preprocess_cycles;
    q.banks.resize(pa);
    std::vector<std::vector<std::uint32_t>> bank_grants(pa);
    for (std::size_t i = 0; i < n; ++i) {
        const HashView query_hash = ctx.query_hashes[i];
        q.query = i;
        q.hashes_next = i + 1 < n;
        q.critical_bank = 0;
        q.candidates = 0;
        q.stalls = 0;
        q.fallback_key.reset();
        for (std::size_t b = 0; b < pa; ++b) {
            const std::size_t begin = b * keys_per_bank;
            const std::size_t end = std::min(n, begin + keys_per_bank);
            BankQueryTrace& bank = q.banks[b];
            bank = begin < end
                       ? simulateBankQuery(
                             functional_.bankHits(ctx, query_hash, begin,
                                                  end, threshold),
                             config_)
                       : BankQueryTrace{};
            bank_grants[b].clear();
            for (const auto local : bank.grant_order) {
                bank_grants[b].push_back(
                    static_cast<std::uint32_t>(begin + local));
            }
            q.candidates += bank.grant_order.size();
            q.stalls += bank.stall_cycles;
            if (bank.cycles > q.banks[q.critical_bank].cycles) {
                q.critical_bank = b;
            }
        }
        if (q.candidates == 0) {
            // Fallback: use the key with the highest approximate
            // similarity so the output row stays defined.
            const std::uint32_t best = functional_.bestKey(ctx,
                                                           query_hash);
            q.fallback_key = best;
            bank_grants[best / keys_per_bank].push_back(best);
            q.candidates = 1;
        }

        // Pipeline interval (Fig. 9): the banked scan plus attention
        // drain, the (overlapped) hash of the next query, and the
        // (overlapped) division of the previous one.
        q.length = std::max({q.banks[q.critical_bank].cycles
                                 + config_.attention_pipeline_latency,
                             hash_per_vec, division_cycles});
        recorder.query(q);

        // ---- Functional output ----
        if (config_.collect_query_trace) {
            for (const auto& grants : bank_grants) {
                result.query_candidates[i].insert(
                    result.query_candidates[i].end(), grants.begin(),
                    grants.end());
            }
        }
        const QueryOutput out =
            functional_.computeQueryOutput(ctx, i, bank_grants);
        std::copy(out.row.begin(), out.row.end(), result.output.row(i));

        q.prev_length = q.length;
        q.begin += q.length;
    }

    // Tail: the last query's output division drains after the loop,
    // then the fault-retry bubble (see RunRecorder::finish).
    result.execute_cycles =
        static_cast<std::size_t>(q.begin - result.preprocess_cycles)
        + division_cycles
        + static_cast<std::size_t>(result.fault.retry_stall_cycles);
    recorder.finish(q.begin);

    if (config_.count_saturations) {
        result.saturations_counted = true;
        result.fixed_saturations = saturation.fixed;
        result.cfloat_saturations = saturation.cfloat;
    }

    // Publish to the attached registry after the timing is final, so
    // instrumentation can never perturb the simulated cycle counts.
    if (stats_ != nullptr) {
        publishRunStats(result, *stats_, stats_prefix_);
    }
    return result;
}

} // namespace elsa
