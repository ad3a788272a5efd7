/**
 * @file
 * Histogram statistics.
 *
 * Log2-bucket histograms: the temporal-stream length distribution
 * for Fig. 6 (left).
 */

#ifndef STMS_STATS_HISTOGRAM_HH
#define STMS_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stms
{

/**
 * Histogram with power-of-two buckets: bucket i holds values in
 * [2^i, 2^(i+1)), with bucket 0 holding {0, 1}.
 */
class Log2Histogram
{
  public:
    explicit Log2Histogram(std::size_t num_buckets = 32);

    void sample(std::uint64_t value, std::uint64_t weight = 1);
    void reset();

    /**
     * Rebuild a histogram from serialized state: bucket counts +
     * count + weighted sum, as decodeRunOutput() reads them back in
     * the codec round trip (results/run_codec.hh). @p buckets shorter
     * than numBuckets() leaves the tail zero; longer is fatal.
     */
    void restore(const std::vector<std::uint64_t> &buckets,
                 std::uint64_t count, double weighted_sum);

    std::uint64_t count() const { return count_; }
    double weightedSum() const { return sum_; }
    double mean() const;
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }
    std::uint64_t bucketLow(std::size_t i) const;

    /**
     * Cumulative fraction of samples with value <= the top of bucket i.
     * This is exactly the CDF the paper plots in Fig. 6 (left).
     */
    double cumulativeFraction(std::size_t i) const;

    std::string toString(const std::string &label) const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace stms

#endif // STMS_STATS_HISTOGRAM_HH
