#include "sim/memory_system.hh"

#include "common/log.hh"

namespace stms
{

void
MlpMeter::accumulate(Cycle now)
{
    if (outstanding_ > 0 && now > lastChange_) {
        const Cycle delta = now - lastChange_;
        area_ += static_cast<double>(outstanding_) *
                 static_cast<double>(delta);
        busy_ += delta;
    }
    lastChange_ = now;
}

void
MlpMeter::start(Cycle now)
{
    accumulate(now);
    ++outstanding_;
}

void
MlpMeter::finish(Cycle now)
{
    stms_assert(outstanding_ > 0, "MLP meter underflow");
    accumulate(now);
    --outstanding_;
}

double
MlpMeter::mlp() const
{
    return busy_ == 0 ? 0.0 : area_ / static_cast<double>(busy_);
}

void
MlpMeter::reset(Cycle now)
{
    area_ = 0.0;
    busy_ = 0;
    lastChange_ = now;
}

MemorySystem::MemorySystem(EventQueue &events,
                           const MemorySystemConfig &config)
    : events_(events), config_(config), l2_(config.l2),
      mem_(makeMemBackend(events, config.backend, config.mem))
{
    stms_assert(config.numCores > 0, "need at least one core");
    l1s_.reserve(config.numCores);
    for (std::uint32_t c = 0; c < config.numCores; ++c) {
        CacheConfig l1cfg = config.l1;
        l1cfg.name = "l1." + std::to_string(c);
        l1s_.push_back(std::make_unique<Cache>(l1cfg));
    }
    mlpMeters_.resize(config.numCores);
}

void
MemorySystem::addPrefetcher(Prefetcher *prefetcher)
{
    stms_assert(prefetcher != nullptr, "null prefetcher");
    const auto id = static_cast<std::uint32_t>(prefetchers_.size());
    prefetchers_.push_back(prefetcher);
    buffers_.emplace_back();
    auto &bufs = buffers_.back();
    for (std::uint32_t c = 0; c < config_.numCores; ++c)
        bufs.emplace_back(config_.prefetchBufferBlocks);
    inflightPrefetches_.emplace_back(config_.numCores, 0u);
    pfStats_.emplace_back();
    prefetcher->attach(*this, config_.numCores, id);
}

PrefetchBuffer &
MemorySystem::buffer(std::uint32_t pf_id, CoreId core)
{
    return buffers_[pf_id][core];
}

const PrefetchBuffer &
MemorySystem::buffer(std::uint32_t pf_id, CoreId core) const
{
    return buffers_[pf_id][core];
}

const PrefetcherStats &
MemorySystem::prefetcherStats(std::uint32_t id) const
{
    stms_assert(id < pfStats_.size(), "bad prefetcher id %u", id);
    return pfStats_[id];
}

bool
MemorySystem::tryL1(CoreId core, Addr addr, bool is_write)
{
    ++stats_.accesses;
    const bool hit = l1s_[core]->access(addr, is_write);
    if (hit)
        ++stats_.l1Hits;
    // Epoch-sampling hook: one never-taken compare when disarmed
    // (nextAt parks at kNever), the same shape as IssueBarrier.
    if (stats_.accesses >= sampleHook_.nextAt) [[unlikely]] {
        sampleHook_.nextAt += sampleHook_.every;
        sampleHook_.fire(sampleHook_.context);
    }
    return hit;
}

void
MemorySystem::demandAccess(CoreId core, Addr addr, bool is_write,
                           AccessCallback done)
{
    const Addr block = blockAlign(addr);
    const Cycle now = events_.now();

    // A fill may have raced ahead of this access's event; recheck L1.
    if (l1s_[core]->contains(block)) {
        ++stats_.l1Hits;
        if (is_write)
            l1s_[core]->markDirty(block);
        if (done)
            done(now + config_.l1Latency, AccessOutcome::L1Hit);
        return;
    }

    // Probe this core's prefetch buffers (Fig. 2: alongside the L1).
    for (std::uint32_t pf = 0; pf < prefetchers_.size(); ++pf) {
        if (buffer(pf, core).consume(block)) {
            ++stats_.prefetchHits;
            ++pfStats_[pf].useful;
            installDemand(core, block, is_write);
            prefetchers_[pf]->onPrefetchUsed(core, block, false);
            for (std::uint32_t other = 0; other < prefetchers_.size();
                 ++other) {
                if (other != pf)
                    prefetchers_[other]->onForeignCovered(core, block);
            }
            if (done) {
                done(now + config_.prefetchBufLatency,
                     AccessOutcome::PrefetchHit);
            }
            return;
        }
    }

    if (l2_.access(block, is_write)) {
        ++stats_.l2Hits;
        // Fill the L1 from the L2 (non-inclusive hierarchy).
        Eviction l1_victim = l1s_[core]->fill(block, is_write);
        if (l1_victim.valid && l1_victim.dirty)
            l2_.markDirty(l1_victim.blockAddr);
        if (done)
            done(now + config_.l2Latency, AccessOutcome::L2Hit);
        return;
    }

    handleMiss(core, block, is_write, std::move(done));
}

void
MemorySystem::handleMiss(CoreId core, Addr block, bool is_write,
                         AccessCallback done)
{
    const Cycle now = events_.now();
    if (Mshr *merged = mshrs_.find(block)) {
        merged->write |= is_write;
        if (merged->prefetch && !merged->demandWaiting) {
            // Demand request caught an in-flight prefetch: the miss is
            // partially covered (Fig. 9 "partially covered").
            merged->demandWaiting = true;
            ++stats_.partialMisses;
            Prefetcher *owner = merged->owner;
            ++pfStats_[owner->id()].partial;
            // The hooks may issue prefetches, and an MSHR insert can
            // move every entry: look the merged MSHR up again after.
            owner->onPrefetchUsed(core, block, true);
            for (Prefetcher *other : prefetchers_) {
                if (other != owner)
                    other->onForeignCovered(core, block);
            }
            merged = mshrs_.find(block);
            stms_assert(merged != nullptr,
                        "MSHR retired during a demand merge");
        } else if (!merged->prefetch) {
            // Merged with another outstanding demand fetch; still an
            // uncovered miss from the core's point of view.
            ++stats_.offchipReads;
        } else {
            // Second demand merging into an already-promoted prefetch:
            // still partially covered from this core's point of view.
            ++stats_.partialMisses;
            ++pfStats_[merged->owner->id()].partial;
        }
        if (done)
            mlpMeters_[core].start(now);
        merged->addWaiter(core, std::move(done));
        return;
    }

    // Fresh off-chip demand access.
    if (is_write)
        ++stats_.offchipWrites;
    else
        ++stats_.offchipReads;

    Mshr mshr;
    mshr.prefetch = false;
    mshr.core = core;
    mshr.write = is_write;
    if (done)
        mlpMeters_[core].start(now);
    mshr.addWaiter(core, std::move(done));
    mshrs_.emplace(block, std::move(mshr));

    mem_->request(TrafficClass::DemandRead, Priority::High, block, 1,
                  [this, block](Cycle done_tick) {
                      const std::size_t slot = mshrs_.indexOf(block);
                      stms_assert(slot != mshrs_.kNpos,
                                  "fill without MSHR");
                      finishDemandFill(block, mshrs_.take(slot),
                                       done_tick);
                  });

    // Notify predictors after the demand fetch is queued so demand
    // traffic wins same-tick arbitration over meta-data lookups. Only
    // reads trigger streaming (stores retire through the write buffer).
    if (!is_write) {
        for (Prefetcher *pf : prefetchers_)
            pf->onOffchipRead(core, block);
    }
}

void
MemorySystem::installDemand(CoreId core, Addr block, bool is_write)
{
    Eviction l2_victim = l2_.fill(block, is_write);
    handleL2Eviction(l2_victim);
    Eviction l1_victim = l1s_[core]->fill(block, is_write);
    if (l1_victim.valid && l1_victim.dirty)
        l2_.markDirty(l1_victim.blockAddr);
}

void
MemorySystem::handleL2Eviction(const Eviction &evicted)
{
    if (evicted.valid && evicted.dirty) {
        mem_->request(TrafficClass::DemandWriteback, Priority::Low,
                      evicted.blockAddr, 1, nullptr);
    }
}

void
MemorySystem::finishDemandFill(Addr block, Mshr &&mshr, Cycle done_tick)
{
    Eviction l2_victim = l2_.fill(block, mshr.write);
    handleL2Eviction(l2_victim);
    mshr.forEachWaiter([&](CoreId core, AccessCallback &callback) {
        Eviction l1_victim = l1s_[core]->fill(block, mshr.write);
        if (l1_victim.valid && l1_victim.dirty)
            l2_.markDirty(l1_victim.blockAddr);
        if (callback) {
            mlpMeters_[core].finish(done_tick);
            callback(done_tick, AccessOutcome::Mem);
        }
    });
}

void
MemorySystem::finishPrefetchFill(Addr block, Mshr &&mshr, Cycle done_tick)
{
    const std::uint32_t pf_id = mshr.owner->id();
    stms_assert(inflightPrefetches_[pf_id][mshr.core] > 0,
                "prefetch inflight underflow");
    --inflightPrefetches_[pf_id][mshr.core];

    if (mshr.demandWaiting) {
        // The block was demanded while in flight: deliver it straight
        // to the caches, bypassing the prefetch buffer.
        Eviction l2_victim = l2_.fill(block, mshr.write);
        handleL2Eviction(l2_victim);
        mshr.forEachWaiter([&](CoreId core, AccessCallback &callback) {
            Eviction l1_victim = l1s_[core]->fill(block, mshr.write);
            if (l1_victim.valid && l1_victim.dirty)
                l2_.markDirty(l1_victim.blockAddr);
            if (callback) {
                mlpMeters_[core].finish(done_tick);
                callback(done_tick, AccessOutcome::MemPartial);
            }
        });
        return;
    }

    auto evicted = buffer(pf_id, mshr.core).insert(block);
    if (evicted) {
        ++pfStats_[pf_id].erroneous;
        mshr.owner->onPrefetchUnused(mshr.core, *evicted);
    }
    mshr.owner->onPrefetchFill(mshr.core, block);
}

IssueResult
MemorySystem::issuePrefetch(Prefetcher &owner, CoreId core, Addr block)
{
    block = blockAlign(block);
    const std::uint32_t pf_id = owner.id();

    if (l1s_[core]->contains(block) || l2_.contains(block) ||
        buffer(pf_id, core).contains(block) ||
        mshrs_.contains(block)) {
        ++pfStats_[pf_id].redundant;
        return IssueResult::AlreadyPresent;
    }

    // The prefetch buffer itself never blocks an issue: a fill into a
    // full buffer displaces the LRU entry (counted erroneous), exactly
    // like a hardware stream buffer. Only the in-flight window gates.
    const std::uint32_t inflight = inflightPrefetches_[pf_id][core];
    if (inflight >= config_.maxPrefetchInflight) {
        ++pfStats_[pf_id].rejected;
        return IssueResult::NoResources;
    }

    Mshr mshr;
    mshr.prefetch = true;
    mshr.owner = &owner;
    mshr.core = core;
    mshrs_.emplace(block, std::move(mshr));
    ++inflightPrefetches_[pf_id][core];
    ++pfStats_[pf_id].issued;

    mem_->request(TrafficClass::Prefetch, Priority::Low, block, 1,
                  [this, block](Cycle done_tick) {
                      const std::size_t slot = mshrs_.indexOf(block);
                      stms_assert(slot != mshrs_.kNpos,
                                  "prefetch fill without MSHR");
                      finishPrefetchFill(block, mshrs_.take(slot),
                                         done_tick);
                  });
    return IssueResult::Issued;
}

void
MemorySystem::metaRequest(TrafficClass cls, Addr addr,
                          std::uint32_t blocks, TimedCallback done)
{
    const Priority prio = config_.metaHighPriority ? Priority::High
                                                   : Priority::Low;
    mem_->request(cls, prio, addr, blocks, std::move(done));
}

std::uint32_t
MemorySystem::prefetchRoom(const Prefetcher &owner, CoreId core) const
{
    const std::uint32_t pf_id = owner.id();
    const std::uint32_t inflight = inflightPrefetches_[pf_id][core];
    if (inflight >= config_.maxPrefetchInflight)
        return 0;
    return config_.maxPrefetchInflight - inflight;
}

double
MemorySystem::meanMlp() const
{
    double sum = 0.0;
    for (const auto &meter : mlpMeters_)
        sum += meter.mlp();
    return sum / static_cast<double>(mlpMeters_.size());
}

void
MemorySystem::setSampleHook(std::uint64_t every, void (*fire)(void *),
                            void *context)
{
    sampleHook_.every = every;
    sampleHook_.nextAt = every == 0 ? SampleHook::kNever : every;
    sampleHook_.fire = fire;
    sampleHook_.context = context;
}

void
MemorySystem::resetStats()
{
    stats_ = MemorySystemStats{};
    // Re-base the sampling epochs at the measurement window: accesses
    // restart from zero, so the next sample fires one full epoch in.
    if (sampleHook_.every != 0)
        sampleHook_.nextAt = sampleHook_.every;
    for (auto &stats : pfStats_)
        stats = PrefetcherStats{};
    mem_->resetStats();
    l2_.resetStats();
    for (auto &l1 : l1s_)
        l1->resetStats();
    for (auto &meter : mlpMeters_)
        meter.reset(events_.now());
    for (Prefetcher *pf : prefetchers_)
        pf->resetStats();
}

} // namespace stms
