#ifndef ELSA_BENCH_PERF_HARNESS_H_
#define ELSA_BENCH_PERF_HARNESS_H_

/**
 * @file
 * Measurement harness of the host-performance benchmark (README.md).
 *
 * A workload is a fixed set of items (attention invocations, figure
 * modes, serve cells) built from the run's seed. The harness
 *
 *  - builds the workload several times and keeps the median set-up
 *    time;
 *  - runs one warm-up item, then whole passes over the items until
 *    the run's time budget is spent, and keeps each item's best host
 *    time;
 *  - checks every item's simulated outputs against the first time it
 *    ran (any difference is a failed operation naming the first
 *    field that differs; so is an elsa::Error thrown by set-up, an
 *    item or the extras, naming the error);
 *  - in a traced run, additionally replays set-up plus one pass with
 *    every call into a module's public entry point timed.
 *
 * Only host time is measured here. Simulated results are exact and
 * enter the fingerprint; they must not change when host time does.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace elsa::perf {

/** Seconds on the host's monotonic clock. */
double hostSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

/** 64-bit FNV-1a over `bytes`, continuing from `hash`. */
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/** One exact simulated output of an item. */
struct Field
{
    std::string name;
    std::uint64_t value = 0;
    /** Summed over a pass into the per-layer count of this name. */
    bool is_count = false;
};

/** The exact simulated outputs of one item, in a fixed order. */
class Record
{
  public:
    /** An exact count; also reported per layer, summed over items. */
    void count(const std::string& name, std::uint64_t value);

    /** A value that only enters the fingerprint. */
    void exact(const std::string& name, std::uint64_t value);

    /** A double, by bit pattern. */
    void exactDouble(const std::string& name, double value);

    /** FNV-1a of a byte range. */
    void exactBytes(const std::string& name, const void* data,
                    std::size_t bytes);

    const std::vector<Field>& fields() const { return fields_; }

  private:
    std::vector<Field> fields_;
};

/**
 * The first field where `got` differs from `want`, as
 * "name: want X, got Y"; empty when the records are identical.
 */
std::string firstDifference(const Record& want, const Record& got);

/** Accumulated host time of one layer boundary. */
struct LayerTime
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
    /**
     * True when the time lies inside another timed call (a profiling
     * scope inside the library), so it is left out of the coverage
     * sum.
     */
    bool nested = false;
};

/** Per-layer host time of one traced job. */
class LayerClock
{
  public:
    /** Times one call; the layer is charged when the scope ends. */
    class Scope
    {
      public:
        Scope(LayerClock* clock, const char* layer);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        LayerClock* clock_;
        const char* layer_;
        double start_ = 0.0;
    };

    void add(const std::string& layer, double seconds,
             std::uint64_t calls, bool nested = false);

    const std::map<std::string, LayerTime>& layers() const
    {
        return layers_;
    }

  private:
    std::map<std::string, LayerTime> layers_;
};

/**
 * One benchmark workload. `clock` is null in untraced runs; traced
 * runs pass a clock and the workload wraps each call into a module's
 * public entry point in a LayerClock::Scope.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input and engine of the run (timed as set-up). */
    virtual void setup(LayerClock* clock) = 0;

    /** Items in one pass. */
    virtual std::size_t items() const = 0;

    /** Run one item (the timed unit of work). */
    virtual void run(std::size_t item, LayerClock* clock) = 0;

    /**
     * Check the invariants of the item's last run and record its
     * exact outputs; returns the simulated cycles it produced. Not
     * timed. Throws elsa::Error when an invariant fails.
     */
    virtual std::uint64_t check(std::size_t item, Record& record) = 0;

    /**
     * Traced runs only: named per-layer values that need runs of
     * their own, outside the traced job, within `seconds`.
     * `<layer>.s` and `<layer>.calls` time a call that, in the
     * traced job, lies inside another timed call.
     */
    virtual std::map<std::string, double> traceExtras(double seconds)
    {
        static_cast<void>(seconds);
        return {};
    }
};

/** Everything one benchmark run measured. */
struct RunReport
{
    std::size_t setups = 0;
    double setup_median_s = 0.0;

    /** Best host seconds of each item over the measured passes. */
    std::vector<double> item_best_s;
    /** Simulated cycles of each item. */
    std::vector<std::uint64_t> item_cycles;
    std::size_t passes = 0;

    /** Reference record of each item (its first run). */
    std::vector<Record> reference;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Traced runs: per-layer best seconds over the traced jobs. */
    std::map<std::string, LayerTime> layers;
    /** Traced runs: the workload's traceExtras(). */
    std::map<std::string, double> extras;
    double traced_job_s = 0.0;
    double traced_pass_s = 0.0;
    std::size_t traced_jobs = 0;

    double peak_rss_mib = 0.0;

    /** FNV-1a over every field of every reference record. */
    std::uint64_t fingerprint() const;
};

/**
 * Build a workload between `min_setups` and `max_setups` times, then
 * measure it for `seconds`. A traced run spends 40% of them on
 * untraced passes (the overhead baseline), 20% on the workload's
 * extras, and the rest on traced jobs of set-up plus one pass.
 */
RunReport runWorkload(Workload& workload, double seconds, bool traced,
                      std::size_t min_setups, std::size_t max_setups);

} // namespace elsa::perf

#endif // ELSA_BENCH_PERF_HARNESS_H_
