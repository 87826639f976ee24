#ifndef ELSA_OBS_HISTOGRAM_H_
#define ELSA_OBS_HISTOGRAM_H_

/**
 * @file
 * Fixed-bucket histogram for the stats registry.
 *
 * Buckets are defined by an ascending edge vector e_0 < ... < e_m:
 * bucket i counts observations in [e_i, e_{i+1}); values below e_0
 * land in the underflow count and values >= e_m in the overflow
 * count, so no observation is ever dropped silently (gem5's
 * distribution stats behave the same way).
 */

#include <cstddef>
#include <mutex>
#include <vector>

namespace elsa::obs {

/**
 * Counting histogram with explicit, half-open buckets. add() and the
 * readers take a small internal lock, so concurrent recording from
 * pool workers is safe (the reader sees a consistent snapshot).
 */
class Histogram
{
  public:
    /** @param edges Ascending bucket edges; needs >= 2 entries. */
    explicit Histogram(std::vector<double> edges);

    /** Copies edges and counts (the lock is never shared). */
    Histogram(const Histogram& other);
    Histogram& operator=(const Histogram& other);

    /** Evenly spaced buckets covering [lo, hi). */
    static Histogram linear(double lo, double hi,
                            std::size_t num_buckets);

    /** Record one observation. */
    void add(double x);

    /** Observations recorded (including under/overflow). */
    std::size_t count() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return count_;
    }

    /** Number of buckets (edges().size() - 1). */
    std::size_t numBuckets() const { return counts_.size(); }

    /** Count of bucket i, i.e. observations in [e_i, e_{i+1}). */
    std::size_t bucketCount(std::size_t i) const;

    /** Observations below the first edge. */
    std::size_t underflow() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return underflow_;
    }

    /** Observations at or above the last edge. */
    std::size_t overflow() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return overflow_;
    }

    /** Bucket edges; immutable after construction, so lock-free. */
    const std::vector<double>& edges() const { return edges_; }

    /** Sum of all observations (for mean reconstruction). */
    double sum() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return sum_;
    }

    /** Clear all counts; the bucket edges are kept. */
    void reset();

  private:
    /** Guards every count; edges_ are immutable post-construction. */
    mutable std::mutex m_;
    std::vector<double> edges_;
    std::vector<std::size_t> counts_;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
    std::size_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace elsa::obs

#endif // ELSA_OBS_HISTOGRAM_H_
