#include "serve/report.h"

#include <string>

#include "obs/digest.h"
#include "obs/json.h"

namespace elsa {

void
publishServeStats(const ServeResult& result,
                  obs::StatsRegistry& registry,
                  const std::string& prefix)
{
    auto count = [&](const char* suffix, std::uint64_t value) {
        registry.counter(prefix + suffix)
            .add(static_cast<double>(value));
    };
    count(".offered", result.offered);
    count(".admitted", result.admitted);
    count(".rejected", result.rejected);
    count(".completed", result.completed);
    count(".shed", result.shed);
    count(".failed", result.failed);
    registry.counter(prefix + ".shed.queue_drop")
        .add(static_cast<double>(result.shed_queue_drop));
    registry.counter(prefix + ".shed.deadline")
        .add(static_cast<double>(result.shed_deadline));
    count(".slo_violations", result.slo_violations);
    count(".faulty_attempts", result.faulty_attempts);
    registry.counter(prefix + ".retry.attempts")
        .add(static_cast<double>(result.retry_attempts));
    registry.counter(prefix + ".retry.backoff_cycles")
        .add(static_cast<double>(result.retry_backoff_cycles));
    count(".span_cycles", result.span_cycles);
    registry.counter(prefix + ".degradation.transitions")
        .add(static_cast<double>(result.degradation_transitions));
    for (std::size_t i = 0; i < result.levels.size(); ++i) {
        // Composed names ("serve.degradation.level0.dwell_cycles");
        // see the serve metric table in docs/OBSERVABILITY.md.
        const std::string level_prefix =
            prefix + ".degradation.level" + std::to_string(i);
        registry.counter(level_prefix + ".dwell_cycles")
            .add(static_cast<double>(
                result.levels[i].dwell_cycles));
        registry.counter(level_prefix + ".dispatched")
            .add(static_cast<double>(
                result.levels[i].dispatched));
    }

    // Derived SLO metrics are gauges: re-publishing overwrites them
    // with the latest run instead of accumulating nonsense sums.
    registry.counter(prefix + ".goodput_qps")
        .set(result.goodput_qps);
    registry.counter(prefix + ".shed_rate").set(result.shed_rate);
    registry.counter(prefix + ".deadline_miss_rate")
        .set(result.deadline_miss_rate);

    registry.digest(prefix + ".latency.request_cycles_digest")
        .merge(result.latency);
    registry.digest(prefix + ".queue_wait.request_cycles_digest")
        .merge(result.queue_wait);
}

void
writeServeJson(std::ostream& os, const ServeConfig& config,
               const ServeResult& result, bool pretty)
{
    obs::JsonWriter w(os, pretty);
    w.beginObject();

    w.key("config").beginObject();
    w.kv("admission", admissionPolicyName(config.admission));
    w.kv("num_accelerators", config.num_accelerators);
    w.kv("num_requests", config.num_requests);
    w.kv("queue_capacity", config.queue_capacity);
    w.kv("deadline_cycles", config.deadline_cycles);
    w.kv("base_p", config.base_p);
    w.kv("mean_interarrival_cycles",
         config.arrival.mean_interarrival_cycles);
    w.kv("fault_enabled", config.sim.fault.enabled);
    w.kv("max_attempts", config.retry.max_attempts);
    w.kv("degradation_enabled", config.degradation.enabled);
    w.key("ladder").beginArray();
    for (const double p : config.degradation.ladder) {
        w.value(p);
    }
    w.endArray();
    w.key("classes").beginArray();
    for (const RequestClassConfig& cls : config.classes) {
        w.beginObject();
        w.kv("model", cls.model.name);
        w.kv("sequence_length", cls.sequence_length);
        w.kv("weight", cls.weight);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("counts").beginObject();
    w.kv("offered", result.offered);
    w.kv("admitted", result.admitted);
    w.kv("rejected", result.rejected);
    w.kv("completed", result.completed);
    w.kv("shed", result.shed);
    w.kv("shed_queue_drop", result.shed_queue_drop);
    w.kv("shed_deadline", result.shed_deadline);
    w.kv("failed", result.failed);
    w.kv("slo_violations", result.slo_violations);
    w.kv("retry_attempts", result.retry_attempts);
    w.kv("retry_backoff_cycles", result.retry_backoff_cycles);
    w.kv("faulty_attempts", result.faulty_attempts);
    w.endObject();

    w.key("conservation").beginObject();
    w.kv("offered_eq_admitted_plus_rejected",
         result.conservesOffered());
    w.kv("admitted_eq_completed_plus_shed_plus_failed",
         result.conservesAdmitted());
    w.endObject();

    w.kv("span_cycles", result.span_cycles);

    w.key("degradation").beginObject();
    w.kv("transitions", result.degradation_transitions);
    w.key("levels").beginArray();
    for (const ServeLevelStats& level : result.levels) {
        w.beginObject();
        w.kv("p", level.p);
        w.kv("dwell_cycles", level.dwell_cycles);
        w.kv("entries", level.entries);
        w.kv("dispatched", level.dispatched);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("latency_cycles").beginObject();
    obs::writeDigestFields(w, result.latency);
    w.endObject();
    w.key("queue_wait_cycles").beginObject();
    obs::writeDigestFields(w, result.queue_wait);
    w.endObject();

    w.key("slo").beginObject();
    w.kv("deadline_cycles", config.deadline_cycles);
    w.kv("goodput_qps", result.goodput_qps);
    w.kv("shed_rate", result.shed_rate);
    w.kv("deadline_miss_rate", result.deadline_miss_rate);
    w.endObject();

    w.endObject();
    os << "\n";
}

} // namespace elsa
