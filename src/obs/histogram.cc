#include "obs/histogram.h"

#include <algorithm>

#include "common/logging.h"

namespace elsa::obs {

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges))
{
    ELSA_CHECK(edges_.size() >= 2,
               "histogram needs >= 2 edges, got " << edges_.size());
    ELSA_CHECK(std::is_sorted(edges_.begin(), edges_.end())
                   && std::adjacent_find(edges_.begin(), edges_.end())
                          == edges_.end(),
               "histogram edges must be strictly ascending");
    counts_.assign(edges_.size() - 1, 0);
}

Histogram::Histogram(const Histogram& other)
{
    std::lock_guard<std::mutex> lk(other.m_);
    edges_ = other.edges_;
    counts_ = other.counts_;
    underflow_ = other.underflow_;
    overflow_ = other.overflow_;
    count_ = other.count_;
    sum_ = other.sum_;
}

Histogram&
Histogram::operator=(const Histogram& other)
{
    if (this == &other) {
        return *this;
    }
    // Consistent-order double lock via scoped_lock (deadlock-free).
    std::scoped_lock lk(m_, other.m_);
    edges_ = other.edges_;
    counts_ = other.counts_;
    underflow_ = other.underflow_;
    overflow_ = other.overflow_;
    count_ = other.count_;
    sum_ = other.sum_;
    return *this;
}

Histogram
Histogram::linear(double lo, double hi, std::size_t num_buckets)
{
    ELSA_CHECK(num_buckets > 0, "histogram needs >= 1 bucket");
    ELSA_CHECK(hi > lo, "histogram range [" << lo << ", " << hi
                                            << ") is empty");
    std::vector<double> edges(num_buckets + 1);
    const double width = (hi - lo) / static_cast<double>(num_buckets);
    for (std::size_t i = 0; i <= num_buckets; ++i) {
        edges[i] = lo + width * static_cast<double>(i);
    }
    // Guard against floating-point drift on the last edge.
    edges.back() = hi;
    return Histogram(std::move(edges));
}

void
Histogram::add(double x)
{
    std::lock_guard<std::mutex> lk(m_);
    ++count_;
    sum_ += x;
    if (x < edges_.front()) {
        ++underflow_;
        return;
    }
    if (x >= edges_.back()) {
        ++overflow_;
        return;
    }
    // First edge greater than x; its predecessor opens the bucket.
    const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
    const std::size_t bucket =
        static_cast<std::size_t>(it - edges_.begin()) - 1;
    ++counts_[bucket];
}

std::size_t
Histogram::bucketCount(std::size_t i) const
{
    std::lock_guard<std::mutex> lk(m_);
    ELSA_CHECK(i < counts_.size(), "histogram bucket " << i
                                                       << " out of range");
    return counts_[i];
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lk(m_);
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
    count_ = 0;
    sum_ = 0.0;
}

} // namespace elsa::obs
