/**
 * @file
 * Generate-once cache of synthetic workload traces.
 *
 * Trace synthesis is the most expensive part of a sweep after the
 * simulation itself, and most experiments reuse the same (workload,
 * records) traces across many configuration points. The cache
 * generates each distinct trace once and keeps it until release():
 * concurrent requests for the same key wait for the generating
 * thread, and distinct keys generate concurrently. Generation is
 * deterministic (seeded per workload spec), so a trace is the same
 * bytes whichever thread built it, and a key acquired again after
 * release() regenerates those bytes.
 *
 * The ExperimentRunner releases each trace after the last run of its
 * plan that uses it, so a sweep holds only the traces its runs in
 * flight still need.
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
     * even past its release() or the cache itself.
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

    /**
     * Drop the cache's reference to (@p workload, @p
     * records_per_core), waiting for its generation to finish; the
     * next acquire() generates it again. Live Handles keep their
     * trace. A key not in the cache is ignored.
     */
    void release(const std::string &workload,
                 std::uint64_t records_per_core);

    /** Traces generated over the cache's lifetime, regenerations
     *  after release() included. */
    std::uint64_t generations() const;

  private:
    using Key = std::pair<std::string, std::uint64_t>;

    struct Entry
    {
        Trace trace;
        bool ready = false;
    };

    /** Sample trace_cache.resident_kb; called under mutex_, so the
     *  track is totally ordered. */
    void emitResident() const;

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::map<Key, std::shared_ptr<Entry>> entries_;
    std::uint64_t residentBytes_ = 0;
    std::uint64_t generations_ = 0;
};

/** The shared cache used by the driver CLI and the examples. */
TraceCache &globalTraceCache();

} // namespace stms::driver

#endif // STMS_DRIVER_TRACE_CACHE_HH
