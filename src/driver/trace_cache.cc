#include "driver/trace_cache.hh"

#include "telemetry/trace_writer.hh"
#include "workload/generators.hh"
#include "workload/workloads.hh"

namespace stms::driver
{

namespace
{

/** Estimated resident footprint of a generated trace. */
std::uint64_t
traceBytes(const Trace &trace)
{
    std::uint64_t bytes = sizeof(Trace) + trace.name.size();
    for (const auto &lane : trace.perCore)
        bytes += lane.capacity() * sizeof(TraceRecord) + sizeof(lane);
    return bytes;
}

} // namespace

TraceCache::Handle
TraceCache::acquire(const std::string &workload,
                    std::uint64_t records_per_core)
{
    const Key key{workload, records_per_core};

    std::unique_lock<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) {
        std::shared_ptr<Entry> entry = it->second;
        ready_.wait(lock, [&] { return entry->ready; });
        return Handle(std::shared_ptr<const Trace>(entry, &entry->trace));
    }

    // First request: the placeholder makes concurrent requests for
    // this key wait instead of generating twice; generation runs
    // outside the lock so distinct keys synthesize concurrently.
    auto entry = std::make_shared<Entry>();
    it->second = entry;
    lock.unlock();

    Trace trace;
    {
        telemetry::ScopedSpan span("stage", "generate", workload);
        trace = WorkloadGenerator(makeWorkload(workload,
                                               records_per_core))
                    .generate();
    }

    lock.lock();
    entry->trace = std::move(trace);
    entry->ready = true;
    residentBytes_ += traceBytes(entry->trace);
    // Sampled under the mutex, so the track is totally ordered.
    telemetry::emitCounter("trace_cache.resident_kb",
                           static_cast<double>(residentBytes_) / 1024.0);
    ready_.notify_all();
    return Handle(std::shared_ptr<const Trace>(entry, &entry->trace));
}

std::uint64_t
TraceCache::generations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

TraceCache &
globalTraceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace stms::driver
