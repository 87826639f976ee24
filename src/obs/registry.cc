#include "obs/registry.h"

#include "common/csv.h"
#include "common/logging.h"
#include "obs/json.h"

namespace elsa::obs {

const char*
metricKindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kDistribution: return "distribution";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kDigest: return "digest";
    }
    ELSA_PANIC("unknown MetricKind");
}

bool
isValidMetricName(const std::string& name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.') {
        return false;
    }
    bool prev_dot = false;
    for (const char c : name) {
        if (c == '.') {
            if (prev_dot) {
                return false;
            }
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        const bool ok = (c >= 'a' && c <= 'z')
                        || (c >= '0' && c <= '9') || c == '_';
        if (!ok) {
            return false;
        }
    }
    return true;
}

StatsRegistry::Entry&
StatsRegistry::findOrCreate(const std::string& name, MetricKind kind)
{
    ELSA_CHECK(isValidMetricName(name),
               "invalid metric name '"
                   << name
                   << "' (want dot-separated [a-z0-9_] segments)");
    auto it = metrics_.find(name);
    if (it != metrics_.end()) {
        ELSA_CHECK(it->second.kind == kind,
                   "metric '" << name << "' already registered as "
                              << metricKindName(it->second.kind)
                              << ", requested "
                              << metricKindName(kind));
        return it->second;
    }
    Entry entry;
    entry.kind = kind;
    return metrics_.emplace(name, std::move(entry)).first->second;
}

Counter&
StatsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lk(m_);
    Entry& entry = findOrCreate(name, MetricKind::kCounter);
    if (entry.counter == nullptr) {
        entry.counter = std::make_unique<Counter>();
    }
    return *entry.counter;
}

Distribution&
StatsRegistry::distribution(const std::string& name)
{
    std::lock_guard<std::mutex> lk(m_);
    Entry& entry = findOrCreate(name, MetricKind::kDistribution);
    if (entry.distribution == nullptr) {
        entry.distribution = std::make_unique<Distribution>();
    }
    return *entry.distribution;
}

Histogram&
StatsRegistry::histogram(const std::string& name,
                         const Histogram& prototype)
{
    std::lock_guard<std::mutex> lk(m_);
    Entry& entry = findOrCreate(name, MetricKind::kHistogram);
    if (entry.histogram == nullptr) {
        entry.histogram = std::make_unique<Histogram>(prototype);
        entry.histogram->reset();
    }
    return *entry.histogram;
}

QuantileDigest&
StatsRegistry::digest(const std::string& name)
{
    std::lock_guard<std::mutex> lk(m_);
    Entry& entry = findOrCreate(name, MetricKind::kDigest);
    if (entry.digest == nullptr) {
        entry.digest = std::make_unique<QuantileDigest>();
    }
    return *entry.digest;
}

MetricKind
StatsRegistry::kind(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(m_);
    const auto it = metrics_.find(name);
    ELSA_CHECK(it != metrics_.end(),
               "metric '" << name << "' is not registered");
    return it->second.kind;
}

bool
StatsRegistry::contains(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(m_);
    return metrics_.find(name) != metrics_.end();
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::vector<std::string> out;
    out.reserve(metrics_.size());
    for (const auto& [name, entry] : metrics_) {
        (void)entry;
        out.push_back(name);
    }
    return out;
}

double
StatsRegistry::counterValue(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(m_);
    const auto it = metrics_.find(name);
    ELSA_CHECK(it != metrics_.end(),
               "metric '" << name << "' is not registered");
    ELSA_CHECK(it->second.kind == MetricKind::kCounter,
               "metric '" << name << "' is a "
                          << metricKindName(it->second.kind)
                          << ", not a counter");
    return it->second.counter->get();
}

QuantileDigest
StatsRegistry::digestValue(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(m_);
    const auto it = metrics_.find(name);
    ELSA_CHECK(it != metrics_.end(),
               "metric '" << name << "' is not registered");
    ELSA_CHECK(it->second.kind == MetricKind::kDigest,
               "metric '" << name << "' is a "
                          << metricKindName(it->second.kind)
                          << ", not a digest");
    return *it->second.digest;
}

void
StatsRegistry::reset()
{
    std::lock_guard<std::mutex> lk(m_);
    for (auto& [name, entry] : metrics_) {
        (void)name;
        switch (entry.kind) {
        case MetricKind::kCounter: entry.counter->reset(); break;
        case MetricKind::kDistribution:
            entry.distribution->reset();
            break;
        case MetricKind::kHistogram: entry.histogram->reset(); break;
        case MetricKind::kDigest: entry.digest->reset(); break;
        }
    }
}

void
StatsRegistry::clear()
{
    std::lock_guard<std::mutex> lk(m_);
    metrics_.clear();
}

void
StatsRegistry::dumpJson(std::ostream& os, bool pretty) const
{
    std::lock_guard<std::mutex> lk(m_);
    JsonWriter w(os, pretty);
    w.beginObject();
    for (const auto& [name, entry] : metrics_) {
        w.key(name);
        switch (entry.kind) {
        case MetricKind::kCounter:
            w.value(entry.counter->get());
            break;
        case MetricKind::kDistribution: {
            const RunningStat stat = entry.distribution->stat();
            w.beginObject();
            w.kv("kind", "distribution");
            w.kv("count", stat.count());
            w.kv("mean", stat.mean());
            w.kv("stddev", stat.stddev());
            if (stat.count() > 0) {
                w.kv("min", stat.min());
                w.kv("max", stat.max());
            }
            w.endObject();
            break;
        }
        case MetricKind::kHistogram: {
            const Histogram& h = *entry.histogram;
            w.beginObject();
            w.kv("kind", "histogram");
            w.kv("count", h.count());
            w.kv("sum", h.sum());
            w.kv("underflow", h.underflow());
            w.kv("overflow", h.overflow());
            w.key("edges").beginArray();
            for (const double e : h.edges()) {
                w.value(e);
            }
            w.endArray();
            w.key("counts").beginArray();
            for (std::size_t i = 0; i < h.numBuckets(); ++i) {
                w.value(h.bucketCount(i));
            }
            w.endArray();
            w.endObject();
            break;
        }
        case MetricKind::kDigest: {
            const QuantileDigest& d = *entry.digest;
            w.beginObject();
            w.kv("kind", "digest");
            writeDigestFields(w, d);
            w.endObject();
            break;
        }
        }
    }
    w.endObject();
    if (pretty) {
        os << '\n';
    }
}

namespace {

void
csvRow(std::ostream& os, const std::string& name, const char* kind,
       const std::string& field, double value)
{
    os << CsvWriter::escape(name) << ',' << kind << ',' << field << ','
       << jsonNumber(value) << '\n';
}

} // namespace

void
StatsRegistry::dumpCsv(std::ostream& os) const
{
    std::lock_guard<std::mutex> lk(m_);
    os << "name,kind,field,value\n";
    for (const auto& [name, entry] : metrics_) {
        switch (entry.kind) {
        case MetricKind::kCounter:
            csvRow(os, name, "counter", "value",
                   entry.counter->get());
            break;
        case MetricKind::kDistribution: {
            const RunningStat stat = entry.distribution->stat();
            csvRow(os, name, "distribution", "count",
                   static_cast<double>(stat.count()));
            csvRow(os, name, "distribution", "mean", stat.mean());
            csvRow(os, name, "distribution", "stddev", stat.stddev());
            if (stat.count() > 0) {
                csvRow(os, name, "distribution", "min", stat.min());
                csvRow(os, name, "distribution", "max", stat.max());
            }
            break;
        }
        case MetricKind::kHistogram: {
            const Histogram& h = *entry.histogram;
            csvRow(os, name, "histogram", "count",
                   static_cast<double>(h.count()));
            csvRow(os, name, "histogram", "sum", h.sum());
            csvRow(os, name, "histogram", "underflow",
                   static_cast<double>(h.underflow()));
            csvRow(os, name, "histogram", "overflow",
                   static_cast<double>(h.overflow()));
            for (std::size_t i = 0; i < h.numBuckets(); ++i) {
                csvRow(os, name, "histogram",
                       "bucket[" + std::to_string(i) + "]",
                       static_cast<double>(h.bucketCount(i)));
            }
            break;
        }
        case MetricKind::kDigest: {
            const QuantileDigest& d = *entry.digest;
            csvRow(os, name, "digest", "count",
                   static_cast<double>(d.count()));
            if (d.count() > 0) {
                csvRow(os, name, "digest", "min", d.min());
                csvRow(os, name, "digest", "max", d.max());
                csvRow(os, name, "digest", "p50", d.quantile(0.50));
                csvRow(os, name, "digest", "p90", d.quantile(0.90));
                csvRow(os, name, "digest", "p95", d.quantile(0.95));
                csvRow(os, name, "digest", "p99", d.quantile(0.99));
            }
            break;
        }
        }
    }
}

StatsRegistry&
globalRegistry()
{
    static StatsRegistry registry;
    return registry;
}

} // namespace elsa::obs
