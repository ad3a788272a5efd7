#include "telemetry/sampler.hh"

namespace stms::telemetry
{

void
EpochSampler::configure(std::uint64_t every)
{
    every_ = every;
    series_.every = every;
}

void
EpochSampler::addCounter(std::string name, Probe probe)
{
    series_.columns.push_back(std::move(name));
    probes_.push_back(std::move(probe));
}

void
EpochSampler::sample(std::uint64_t accesses, std::uint64_t cycle)
{
    SampleSeries::Row row;
    row.accesses = accesses;
    row.cycle = cycle;
    row.values.reserve(probes_.size());
    for (const Probe &probe : probes_)
        row.values.push_back(probe());
    series_.rows.push_back(std::move(row));
}

void
EpochSampler::discardRows()
{
    series_.rows.clear();
}

SampleSeries
EpochSampler::take()
{
    SampleSeries out = std::move(series_);
    series_ = SampleSeries();
    series_.every = every_;
    series_.columns = out.columns;
    return out;
}

} // namespace stms::telemetry
