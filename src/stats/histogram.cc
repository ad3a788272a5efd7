#include "stats/histogram.hh"

#include <algorithm>
#include <cstdio>

#include "common/log.hh"

namespace stms
{

Log2Histogram::Log2Histogram(std::size_t num_buckets)
    : buckets_(num_buckets, 0)
{
    stms_assert(num_buckets >= 2, "Log2Histogram needs >= 2 buckets");
}

void
Log2Histogram::sample(std::uint64_t value, std::uint64_t weight)
{
    std::size_t idx = value <= 1 ? 0 : floorLog2(value);
    idx = std::min(idx, buckets_.size() - 1);
    buckets_[idx] += weight;
    count_ += weight;
    sum_ += static_cast<double>(value) * static_cast<double>(weight);
}

void
Log2Histogram::restore(const std::vector<std::uint64_t> &buckets,
                       std::uint64_t count, double weighted_sum)
{
    stms_assert(buckets.size() <= buckets_.size(),
                "Log2Histogram restore exceeds bucket count");
    reset();
    std::copy(buckets.begin(), buckets.end(), buckets_.begin());
    count_ = count;
    sum_ = weighted_sum;
}

void
Log2Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
}

double
Log2Histogram::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t
Log2Histogram::bucketLow(std::size_t i) const
{
    return i == 0 ? 0 : (1ULL << i);
}

double
Log2Histogram::cumulativeFraction(std::size_t i) const
{
    if (count_ == 0)
        return 0.0;
    std::uint64_t running = 0;
    for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b)
        running += buckets_[b];
    return static_cast<double>(running) / static_cast<double>(count_);
}

std::string
Log2Histogram::toString(const std::string &label) const
{
    std::string out = label + ":\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        char line[128];
        std::snprintf(line, sizeof(line), "  [%10llu, %10llu): %llu\n",
                      static_cast<unsigned long long>(bucketLow(i)),
                      static_cast<unsigned long long>(1ULL << (i + 1)),
                      static_cast<unsigned long long>(buckets_[i]));
        out += line;
    }
    return out;
}

} // namespace stms
