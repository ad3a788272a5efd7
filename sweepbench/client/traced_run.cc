#include "traced_run.hh"

#include <memory>
#include <optional>
#include <vector>

#include "common/arena.hh"
#include "prefetch/stride.hh"
#include "sim/system.hh"

namespace sweepbench
{

using namespace stms;

namespace
{

/**
 * Times one prefetcher from both sides: the MemorySystem's hooks into
 * it, and its PrefetchPort calls back into the MemorySystem. The
 * decorator registers with the MemorySystem in the inner prefetcher's
 * place and hands *itself* to the inner prefetcher as its port.
 */
class TimedPrefetcher final : public Prefetcher, public PrefetchPort
{
  public:
    TimedPrefetcher(Prefetcher &inner, Layer layer, SpanStack &spans,
                    HookCalls &calls)
        : inner_(inner), layer_(layer), spans_(spans), calls_(calls)
    {}

    const std::string &name() const override { return inner_.name(); }

    void
    attach(PrefetchPort &port, std::uint32_t num_cores,
           std::uint32_t id) override
    {
        Prefetcher::attach(port, num_cores, id);
        inner_.attach(*this, num_cores, id);
    }

    void
    onOffchipRead(CoreId core, Addr block) override
    {
        Span span(spans_, layer_);
        ++calls_[static_cast<std::size_t>(Hook::OffchipRead)];
        inner_.onOffchipRead(core, block);
    }

    void
    onPrefetchUsed(CoreId core, Addr block, bool partial) override
    {
        Span span(spans_, layer_);
        ++calls_[static_cast<std::size_t>(Hook::PrefetchUsed)];
        inner_.onPrefetchUsed(core, block, partial);
    }

    void
    onForeignCovered(CoreId core, Addr block) override
    {
        Span span(spans_, layer_);
        ++calls_[static_cast<std::size_t>(Hook::ForeignCovered)];
        inner_.onForeignCovered(core, block);
    }

    void
    onPrefetchFill(CoreId core, Addr block) override
    {
        Span span(spans_, layer_);
        ++calls_[static_cast<std::size_t>(Hook::PrefetchFill)];
        inner_.onPrefetchFill(core, block);
    }

    void
    onPrefetchUnused(CoreId core, Addr block) override
    {
        Span span(spans_, layer_);
        ++calls_[static_cast<std::size_t>(Hook::PrefetchUnused)];
        inner_.onPrefetchUnused(core, block);
    }

    void
    onAccessHint(CoreId core, std::span<const Addr> addrs) override
    {
        Span span(spans_, layer_);
        ++calls_[static_cast<std::size_t>(Hook::AccessHint)];
        inner_.onAccessHint(core, addrs);
    }

    void resetStats() override { inner_.resetStats(); }

    // PrefetchPort, as the inner prefetcher sees it. The owner passed
    // on is this decorator, never the inner prefetcher: the
    // MemorySystem keys MSHRs and buffers by owner and calls hooks on
    // it, so those hooks must come back through the decorator.
    IssueResult
    issuePrefetch(Prefetcher &, CoreId core, Addr block) override
    {
        Span span(spans_, Layer::Port);
        return port_->issuePrefetch(*this, core, block);
    }

    void
    metaRequest(TrafficClass cls, Addr addr, std::uint32_t blocks,
                TimedCallback done) override
    {
        Span span(spans_, Layer::Port);
        if (!done) {
            port_->metaRequest(cls, addr, blocks, nullptr);
            return;
        }
        // TimedCallback's inline storage is already full with STMS's
        // lookup continuation, so the original callback waits in a
        // side slot and the wrapper captures only {this, slot}.
        const std::size_t slot = park(std::move(done));
        port_->metaRequest(cls, addr, blocks, [this, slot](Cycle tick) {
            complete(slot, tick);
        });
    }

    Cycle now() const override { return port_->now(); }

    std::uint32_t
    prefetchRoom(const Prefetcher &, CoreId core) const override
    {
        return port_->prefetchRoom(*this, core);
    }

  private:
    std::size_t
    park(TimedCallback done)
    {
        if (freeSlots_.empty()) {
            parked_.push_back(std::move(done));
            return parked_.size() - 1;
        }
        const std::size_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        parked_[slot] = std::move(done);
        return slot;
    }

    void
    complete(std::size_t slot, Cycle tick)
    {
        // Move out before calling: the callback may park another one
        // and grow the slot vector.
        TimedCallback done = std::move(parked_[slot]);
        freeSlots_.push_back(slot);
        Span span(spans_, layer_);
        ++calls_[static_cast<std::size_t>(Hook::MetaCallback)];
        done(tick);
    }

    Prefetcher &inner_;
    Layer layer_;
    SpanStack &spans_;
    HookCalls &calls_;
    std::vector<TimedCallback> parked_;
    std::vector<std::size_t> freeSlots_;
};

class TimedCursor final : public trace_io::RecordCursor
{
  public:
    TimedCursor(std::unique_ptr<trace_io::RecordCursor> inner,
                SpanStack &spans, RunCounts &counts)
        : inner_(std::move(inner)), spans_(spans), counts_(counts)
    {}

    const TraceRecord *
    peek() override
    {
        Span span(spans_, Layer::TraceIo);
        return inner_->peek();
    }

    void
    next() override
    {
        Span span(spans_, Layer::TraceIo);
        inner_->next();
    }

    std::span<const TraceRecord>
    chunk() override
    {
        Span span(spans_, Layer::TraceIo);
        const std::span<const TraceRecord> window = inner_->chunk();
        if (!window.empty())
            ++counts_.chunks;
        return window;
    }

    void
    consume(std::size_t count) override
    {
        Span span(spans_, Layer::TraceIo);
        inner_->consume(count);
    }

  private:
    std::unique_ptr<trace_io::RecordCursor> inner_;
    SpanStack &spans_;
    RunCounts &counts_;
};

class TimedSource final : public trace_io::TraceSource
{
  public:
    TimedSource(trace_io::TraceSource &inner, SpanStack &spans,
                RunCounts &counts)
        : inner_(inner), spans_(spans), counts_(counts)
    {}

    const std::string &name() const override { return inner_.name(); }
    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::uint64_t
    totalRecords() const override
    {
        return inner_.totalRecords();
    }

    std::unique_ptr<trace_io::RecordCursor>
    openLane(CoreId lane) override
    {
        std::unique_ptr<trace_io::RecordCursor> inner;
        {
            Span span(spans_, Layer::TraceIo);
            inner = inner_.openLane(lane);
        }
        return std::make_unique<TimedCursor>(std::move(inner), spans_,
                                             counts_);
    }

  private:
    trace_io::TraceSource &inner_;
    SpanStack &spans_;
    RunCounts &counts_;
};

} // namespace

RunOutput
runTraced(trace_io::TraceSource &inner_source, const RunConfig &run_config,
          SpanStack &spans, RunCounts &counts)
{
    // Declared first so it closes last, after the arena reset, which
    // the driver's simulate stage pays as well.
    Span run_span(spans, Layer::Sim);

    // From here to the RunOutput fields this mirrors stms::runTrace(),
    // less the correlation prefetcher no benchmark workload configures;
    // the client compares every run with runTrace()'s own output.
    ScopedRunArena arena_scope;
    TimedSource source(inner_source, spans, counts);
    SimConfig config = run_config.sim;
    config.warmupRecords = static_cast<std::uint64_t>(
        run_config.warmupFraction *
        static_cast<double>(source.totalRecords()));

    CmpSystem system(config, source);
    StridePrefetcher stride;
    TimedPrefetcher timed_stride(stride, Layer::Prefetch, spans,
                                 counts.strideCalls);
    system.addPrefetcher(&timed_stride);

    std::optional<StmsPrefetcher> stms;
    std::optional<TimedPrefetcher> timed_stms;
    if (run_config.stms) {
        stms.emplace(*run_config.stms);
        timed_stms.emplace(*stms, Layer::Core, spans, counts.stmsCalls);
        system.addPrefetcher(&*timed_stms);
    }

    RunOutput out;
    out.sim = system.run();
    out.stride = out.sim.prefetchers.at(0);
    if (stms) {
        out.stms = out.sim.prefetchers.back();
        out.stmsInternal = stms->stats();
        out.stmsMetaBytes = stms->metaFootprintBytes();
        const double full = static_cast<double>(out.stms.useful);
        const double partial = static_cast<double>(out.stms.partial);
        const double uncovered =
            static_cast<double>(out.sim.mem.offchipReads);
        const double denom = full + partial + uncovered;
        if (denom > 0) {
            out.stmsCoverage = (full + partial) / denom;
            out.stmsFullCoverage = full / denom;
            out.stmsPartialCoverage = partial / denom;
        }
    }

    counts.records = source.totalRecords();
    counts.eventsExecuted = system.events().executed();
    for (CoreId c = 0; c < system.memory().numCores(); ++c) {
        const CacheStats &l1 = system.memory().l1(c).stats();
        counts.l1.hits += l1.hits;
        counts.l1.misses += l1.misses;
    }
    counts.l2 = system.memory().l2().stats();
    if (stms) {
        counts.hasStms = true;
        counts.index = stms->indexTable().stats();
        counts.bucketBuffer = stms->bucketBuffer().stats();
    }
    return out;
}

} // namespace sweepbench
