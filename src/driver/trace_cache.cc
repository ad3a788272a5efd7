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
    ++generations_;
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
    emitResident();
    ready_.notify_all();
    return Handle(std::shared_ptr<const Trace>(entry, &entry->trace));
}

void
TraceCache::release(const std::string &workload,
                    std::uint64_t records_per_core)
{
    const Key key{workload, records_per_core};
    std::unique_lock<std::mutex> lock(mutex_);
    // A pending entry is released once generated, so its bytes are
    // counted in before they are counted out.
    ready_.wait(lock, [&] {
        const auto it = entries_.find(key);
        return it == entries_.end() || it->second->ready;
    });
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    residentBytes_ -= traceBytes(it->second->trace);
    entries_.erase(it);
    emitResident();
}

std::uint64_t
TraceCache::generations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generations_;
}

void
TraceCache::emitResident() const
{
    telemetry::emitCounter("trace_cache.resident_kb",
                           static_cast<double>(residentBytes_) / 1024.0);
}

TraceCache &
globalTraceCache()
{
    static TraceCache cache;
    return cache;
}

} // namespace stms::driver
