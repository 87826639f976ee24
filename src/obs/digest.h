#ifndef ELSA_OBS_DIGEST_H_
#define ELSA_OBS_DIGEST_H_

/**
 * @file
 * Deterministic streaming quantile digest (merging t-digest).
 *
 * Accumulates a sample stream in bounded memory and answers
 * quantile(q) queries with a rank error that shrinks toward the
 * tails -- exactly the shape needed for p50/p95/p99 latency
 * reporting. The implementation is the buffered *merging* t-digest
 * of Dunning & Ertl with the k1 scale function
 *
 *     k(q) = (compression / 2pi) * asin(2q - 1)
 *
 * so adjacent centroids are merged only while their combined
 * k-width stays <= 1. Unlike the classic clustering variant there
 * is no randomness anywhere: samples are buffered, sorted, and
 * merged into the sorted centroid list in one deterministic pass,
 * so the same multiset of samples always yields the same centroids
 * and the same quantile answers regardless of thread count (the
 * simulator merges shards in invocation order, docs/PARALLELISM.md).
 *
 * Accuracy: with the k1 scale the maximum rank error at the median
 * is about pi / (2 * compression) -- ~1.6% of rank for the default
 * compression of 100 -- and decreases toward q = 0 and q = 1 where
 * centroids are forced to be small; the extremes are exact because
 * min and max are tracked explicitly and anchor the interpolation.
 * docs/OBSERVABILITY.md states the bound the tests enforce.
 *
 * Thread-safety matches the other registry metrics: add(), merge()
 * and the readers take a small internal lock. quantile() may compact
 * the internal buffer (a const-visible cache flush), which is why
 * the storage is mutable.
 */

#include <cstddef>
#include <mutex>
#include <vector>

namespace elsa::obs {

class JsonWriter;

/** Bounded-memory quantile sketch; see file comment. */
class QuantileDigest
{
  public:
    /**
     * @param compression Centroid budget knob; the digest keeps
     *        roughly `compression` centroids. Larger is more
     *        accurate and bigger. Must be >= 10.
     */
    explicit QuantileDigest(double compression = 100.0);

    /** Copies samples and centroids (the lock is never shared). */
    QuantileDigest(const QuantileDigest& other);
    QuantileDigest& operator=(const QuantileDigest& other);

    /** Record one (finite) observation. */
    void add(double x);

    /** Fold another digest in; both keep their full accuracy. */
    void merge(const QuantileDigest& other);

    /** Observations recorded. */
    std::size_t count() const;

    /** Smallest observation; fatal when empty. */
    double min() const;

    /** Largest observation; fatal when empty. */
    double max() const;

    /** The compression the digest was built with. */
    double compression() const { return compression_; }

    /**
     * Estimated q-quantile, q in [0, 1]; fatal when empty. Exact at
     * q = 0 and q = 1 (returns min/max), interpolated between
     * centroid midpoints in between.
     */
    double quantile(double q) const;

    /** Drop every observation; the compression is kept. */
    void reset();

  private:
    struct Centroid
    {
        double mean;
        double weight;
    };

    /** k1 scale function; see file comment. */
    double kFromQ(double q) const;

    /** Sort the buffer and fold it into the centroid list. */
    void flushLocked() const;

    /**
     * Merge a sorted centroid run into centroids_ and re-compact
     * under the k1 size limit. Deterministic single pass.
     */
    void mergeSortedLocked(const std::vector<Centroid>& other) const;

    /** Guards everything below. */
    mutable std::mutex m_;
    double compression_;
    /** Unsorted samples awaiting a deterministic flush. */
    mutable std::vector<double> buffer_;
    /** Compacted sketch, sorted by mean. */
    mutable std::vector<Centroid> centroids_;
    std::size_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Write a digest's `count` and, once count > 0, its `min`, `max`,
 * `p50`, `p90`, `p95` and `p99` as fields of the JSON object the
 * caller has open. The one digest serialization shared by stats.json,
 * telemetry.json, spans.json and serve.json.
 */
void writeDigestFields(JsonWriter& w, const QuantileDigest& d);

} // namespace elsa::obs

#endif // ELSA_OBS_DIGEST_H_
