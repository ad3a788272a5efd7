/**
 * @file
 * Generate-once cache of synthetic workload traces.
 *
 * Trace synthesis is the most expensive part of a sweep after the
 * simulation itself, and most experiments reuse the same (workload,
 * records) traces across many configuration points. The cache
 * generates each distinct trace once and keeps it for its own
 * lifetime: concurrent requests for the same key wait for the
 * generating thread, and distinct keys generate concurrently.
 * Generation is deterministic (seeded per workload spec), so a trace
 * is the same bytes whichever thread built it.
 *
 * Only synthetic traces live here. Ingested on-disk traces (RunSpecs
 * with an IngestSpec) stream through trace_io per run in bounded
 * chunks and never enter the cache.
 */

#ifndef STMS_DRIVER_TRACE_CACHE_HH
#define STMS_DRIVER_TRACE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "workload/trace.hh"

namespace stms::driver
{

/** Thread-safe, generate-once trace store. */
class TraceCache
{
  public:
    /**
     * A cached trace. The trace stays valid while the Handle lives,
     * even past the cache itself.
     */
    class Handle
    {
      public:
        Handle() = default;

        const Trace &trace() const { return *trace_; }

      private:
        friend class TraceCache;
        explicit Handle(std::shared_ptr<const Trace> trace)
            : trace_(std::move(trace))
        {}

        std::shared_ptr<const Trace> trace_;
    };

    /**
     * The trace for (@p workload, @p records_per_core), generated on
     * first request. Blocks while another thread generates the same
     * key.
     */
    Handle acquire(const std::string &workload,
                   std::uint64_t records_per_core);

    /** Traces generated over the cache's lifetime, one per key. */
    std::uint64_t generations() const;

  private:
    using Key = std::pair<std::string, std::uint64_t>;

    struct Entry
    {
        Trace trace;
        bool ready = false;
    };

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::map<Key, std::shared_ptr<Entry>> entries_;
    std::uint64_t residentBytes_ = 0;
};

/** The shared cache used by the driver CLI and the examples. */
TraceCache &globalTraceCache();

} // namespace stms::driver

#endif // STMS_DRIVER_TRACE_CACHE_HH
