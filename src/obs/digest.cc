#include "obs/digest.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/json.h"

namespace elsa::obs {

namespace {

/** Buffered samples folded per deterministic compaction pass. */
constexpr std::size_t kBufferLimit = 512;

constexpr double kPi = 3.14159265358979323846;

} // namespace

QuantileDigest::QuantileDigest(double compression)
    : compression_(compression)
{
    ELSA_CHECK(compression_ >= 10.0,
               "digest compression must be >= 10, got "
                   << compression_);
    buffer_.reserve(kBufferLimit);
}

QuantileDigest::QuantileDigest(const QuantileDigest& other)
{
    std::lock_guard<std::mutex> lk(other.m_);
    compression_ = other.compression_;
    buffer_ = other.buffer_;
    centroids_ = other.centroids_;
    count_ = other.count_;
    min_ = other.min_;
    max_ = other.max_;
}

QuantileDigest&
QuantileDigest::operator=(const QuantileDigest& other)
{
    if (this == &other) {
        return *this;
    }
    // Consistent-order double lock via scoped_lock (deadlock-free).
    std::scoped_lock lk(m_, other.m_);
    compression_ = other.compression_;
    buffer_ = other.buffer_;
    centroids_ = other.centroids_;
    count_ = other.count_;
    min_ = other.min_;
    max_ = other.max_;
    return *this;
}

double
QuantileDigest::kFromQ(double q) const
{
    return compression_ / (2.0 * kPi) * std::asin(2.0 * q - 1.0);
}

void
QuantileDigest::add(double x)
{
    std::lock_guard<std::mutex> lk(m_);
    ELSA_CHECK(std::isfinite(x),
               "digest observation must be finite, got " << x);
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    buffer_.push_back(x);
    if (buffer_.size() >= kBufferLimit) {
        flushLocked();
    }
}

void
QuantileDigest::merge(const QuantileDigest& other)
{
    if (this == &other) {
        const QuantileDigest copy(other);
        merge(copy);
        return;
    }
    std::scoped_lock lk(m_, other.m_);
    if (other.count_ == 0) {
        return;
    }
    other.flushLocked();
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    flushLocked();
    mergeSortedLocked(other.centroids_);
}

void
QuantileDigest::flushLocked() const
{
    if (buffer_.empty()) {
        return;
    }
    std::sort(buffer_.begin(), buffer_.end());
    std::vector<Centroid> fresh;
    fresh.reserve(buffer_.size());
    for (const double x : buffer_) {
        fresh.push_back({x, 1.0});
    }
    buffer_.clear();
    mergeSortedLocked(fresh);
}

void
QuantileDigest::mergeSortedLocked(
    const std::vector<Centroid>& other) const
{
    if (other.empty()) {
        return;
    }
    std::vector<Centroid> merged;
    merged.reserve(centroids_.size() + other.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < centroids_.size() || j < other.size()) {
        const bool take_own =
            j >= other.size()
            || (i < centroids_.size()
                && centroids_[i].mean <= other[j].mean);
        merged.push_back(take_own ? centroids_[i++] : other[j++]);
    }
    double total = 0.0;
    for (const Centroid& c : merged) {
        total += c.weight;
    }
    std::vector<Centroid> out;
    Centroid cur = merged.front();
    double w_before = 0.0;
    double k_lo = kFromQ(0.0);
    for (std::size_t idx = 1; idx < merged.size(); ++idx) {
        const Centroid& c = merged[idx];
        const double q_hi =
            (w_before + cur.weight + c.weight) / total;
        if (kFromQ(q_hi) - k_lo <= 1.0) {
            cur.mean = (cur.mean * cur.weight + c.mean * c.weight)
                       / (cur.weight + c.weight);
            cur.weight += c.weight;
        } else {
            out.push_back(cur);
            w_before += cur.weight;
            k_lo = kFromQ(w_before / total);
            cur = c;
        }
    }
    out.push_back(cur);
    centroids_ = std::move(out);
}

std::size_t
QuantileDigest::count() const
{
    std::lock_guard<std::mutex> lk(m_);
    return count_;
}

double
QuantileDigest::min() const
{
    std::lock_guard<std::mutex> lk(m_);
    ELSA_CHECK(count_ > 0, "min() of an empty digest");
    return min_;
}

double
QuantileDigest::max() const
{
    std::lock_guard<std::mutex> lk(m_);
    ELSA_CHECK(count_ > 0, "max() of an empty digest");
    return max_;
}

double
QuantileDigest::quantile(double q) const
{
    std::lock_guard<std::mutex> lk(m_);
    ELSA_CHECK(q >= 0.0 && q <= 1.0,
               "quantile " << q << " outside [0, 1]");
    ELSA_CHECK(count_ > 0, "quantile() of an empty digest");
    flushLocked();
    if (q <= 0.0) {
        return min_;
    }
    if (q >= 1.0) {
        return max_;
    }
    const double total = static_cast<double>(count_);
    const double rank = q * total;
    // Each centroid sits at its cumulative-weight midpoint; the
    // stream extremes anchor the two ends exactly.
    double prev_pos = 0.0;
    double prev_val = min_;
    double cum = 0.0;
    for (const Centroid& c : centroids_) {
        const double pos = cum + c.weight / 2.0;
        if (rank < pos) {
            if (pos <= prev_pos) {
                return c.mean;
            }
            const double frac =
                (rank - prev_pos) / (pos - prev_pos);
            return std::clamp(prev_val
                                  + frac * (c.mean - prev_val),
                              min_, max_);
        }
        prev_pos = pos;
        prev_val = c.mean;
        cum += c.weight;
    }
    if (total <= prev_pos) {
        return max_;
    }
    const double frac = (rank - prev_pos) / (total - prev_pos);
    return std::clamp(prev_val + frac * (max_ - prev_val), min_,
                      max_);
}

void
QuantileDigest::reset()
{
    std::lock_guard<std::mutex> lk(m_);
    buffer_.clear();
    centroids_.clear();
    count_ = 0;
    min_ = 0.0;
    max_ = 0.0;
}

void
writeDigestFields(JsonWriter& w, const QuantileDigest& d)
{
    w.kv("count", d.count());
    if (d.count() > 0) {
        w.kv("min", d.min());
        w.kv("max", d.max());
        w.kv("p50", d.quantile(0.50));
        w.kv("p90", d.quantile(0.90));
        w.kv("p95", d.quantile(0.95));
        w.kv("p99", d.quantile(0.99));
    }
}

} // namespace elsa::obs
