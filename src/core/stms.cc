#include "core/stms.hh"

#include <algorithm>

#include "common/log.hh"
#include "prefetch/meta_addr.hh"

namespace stms
{

StmsConfig
makeIdealTmsConfig()
{
    StmsConfig config;
    config.ideal = true;
    config.samplingProbability = 1.0;
    config.historyEntriesPerCore = 0;  // Unbounded.
    config.indexBytes = 0;             // Unbounded.
    return config;
}

StmsPrefetcher::StmsPrefetcher(const StmsConfig &config)
    : config_(config),
      index_(config.indexBytes, config.entriesPerBucket),
      bucketBuffer_(config.bucketBufferBuckets),
      sampler_(config.samplingProbability, config.seed)
{
    stms_assert(config.addressQueueDepth > 0, "address queue needs depth");
    stms_assert(config.killThreshold > 0, "kill threshold must be >= 1");
    stms_assert(config.streamsPerCore > 0, "need at least one stream slot");
    stms_assert(config.maxLookupsInFlight > 0, "need lookup capacity");
}

void
StmsPrefetcher::attach(PrefetchPort &port, std::uint32_t num_cores,
                       std::uint32_t id)
{
    Prefetcher::attach(port, num_cores, id);
    const std::uint32_t buffers = config_.sharedHistory ? 1 : num_cores;
    history_.clear();
    for (std::uint32_t i = 0; i < buffers; ++i) {
        history_.push_back(std::make_unique<HistoryBuffer>(
            config_.historyEntriesPerCore,
            config_.entriesPerHistoryBlock));
    }
    // Streams hold move-only arena-backed sets, so the slot matrix is
    // sized in place instead of assigned from a copied prototype.
    streams_.clear();
    streams_.resize(num_cores);
    for (auto &slots : streams_)
        slots.resize(config_.streamsPerCore);
    lookupsInFlight_.assign(num_cores, 0);
    fetchBlocks_.reset(config_.entriesPerHistoryBlock);
    fetchMarks_.reset(config_.entriesPerHistoryBlock);
}

CoreId
StmsPrefetcher::historyOwner(CoreId core) const
{
    return config_.sharedHistory ? 0 : core;
}

HistoryBuffer &
StmsPrefetcher::historyOf(CoreId owner)
{
    return *history_[owner];
}

const HistoryBuffer &
StmsPrefetcher::historyBuffer(CoreId core) const
{
    return *history_[config_.sharedHistory ? 0 : core];
}

StmsPrefetcher::Stream &
StmsPrefetcher::slot(CoreId core, std::uint32_t index)
{
    return streams_[core][index];
}

std::uint64_t
StmsPrefetcher::metaFootprintBytes() const
{
    std::uint64_t total = index_.footprintBytes();
    for (const auto &hb : history_)
        total += hb->footprintBytes();
    return total;
}

/**
 * Drop issued-set entries the demand stream has moved past: once the
 * core consumed (or skipped to) @p upto, older issued blocks are dead
 * weight in the confidence window. Their buffer entries still age out
 * via LRU and get counted erroneous there; a small slack tolerates
 * local reordering.
 */
void
StmsPrefetcher::retirePassed(IssuedSet &issued, SeqNum upto)
{
    constexpr SeqNum slack = 8;
    if (upto == kInvalidSeq || upto < slack)
        return;
    issued.retireBelow(upto - slack);
}

bool
StmsPrefetcher::isHealthy(const Stream &stream) const
{
    if (!stream.active || stream.pausedAt != kInvalidAddr ||
        stream.unusedStreak > 0)
        return false;
    if (stream.queue.empty() && stream.issued.empty())
        return false;
    return missClock_ - stream.lastActivity <= config_.staleWindow;
}

std::uint64_t
StmsPrefetcher::issuedOutstanding(CoreId core) const
{
    std::uint64_t total = 0;
    for (const Stream &stream : streams_[core])
        total += stream.issued.size();
    return total;
}

void
StmsPrefetcher::logMiss(CoreId core, Addr block)
{
    ++missClock_;
    ++stats_.logged;
    const CoreId owner = historyOwner(core);
    HistoryBuffer &hb = historyOf(owner);
    const SeqNum seq = hb.append(block);

    // One packed block write per entriesPerHistoryBlock appends.
    if (hb.lastAppendCompletedBlock()) {
        ++stats_.historyBlockWrites;
        if (!config_.ideal) {
            port_->metaRequest(
                TrafficClass::MetaRecord,
                metaHistoryAddr(owner,
                                seq / config_.entriesPerHistoryBlock),
                1, nullptr);
        }
    }

    // Probabilistic index update (Sec. 4.4).
    if (sampler_.shouldUpdate())
        applyIndexUpdate(block, HistoryPointer{owner, seq});
}

void
StmsPrefetcher::applyIndexUpdate(Addr block, HistoryPointer pointer)
{
    index_.update(block, pointer);
    if (config_.ideal)
        return;

    // Traffic model: a bucket-buffer hit applies the update on chip
    // (dirty, written back on eviction); a miss costs the read half of
    // the read-modify-write now and the write half on eviction.
    const std::uint64_t bucket = index_.bucketOf(block);
    if (bucketBuffer_.probe(bucket, /*dirty=*/true))
        return;
    port_->metaRequest(TrafficClass::MetaUpdate, metaIndexAddr(bucket),
                       1, nullptr);
    if (const BucketWriteback victim =
            bucketBuffer_.insert(bucket, /*dirty=*/true)) {
        port_->metaRequest(TrafficClass::MetaUpdate,
                           metaIndexAddr(victim.bucket), 1, nullptr);
    }
}

void
StmsPrefetcher::onOffchipRead(CoreId core, Addr block)
{
    auto &slots = streams_[core];

    // Resume a stream paused at an end-of-stream annotation if the
    // core explicitly requested the annotated address (Sec. 4.5).
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        Stream &stream = slots[i];
        if (stream.active && stream.pausedAt == block) {
            ++stats_.resumes;
            stream.pausedAt = kInvalidAddr;
            if (!stream.queue.empty() &&
                stream.queue.front().block == block) {
                stream.lastConsumed = stream.queue.front().seq;
                stream.queue.pop_front();
            }
            stream.lastActivity = missClock_ + 1;
            logMiss(core, block);
            pump(core, i);
            return;
        }
    }

    // Skip-ahead: the miss matches an address still waiting in some
    // stream's queue — that stream is correct but running behind.
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        Stream &stream = slots[i];
        if (!stream.active)
            continue;
        const std::size_t scan =
            std::min<std::size_t>(stream.queue.size(), 8);
        for (std::size_t k = 0; k < scan; ++k) {
            if (stream.queue[k].block == block) {
                ++stats_.skipAheads;
                stream.lastConsumed = stream.queue[k].seq;
                stream.unusedStreak = 0;
                stream.lastActivity = missClock_ + 1;
                // A skip confirms the stream is on the right path —
                // it counts toward the confidence window even though
                // the prefetch itself was late.
                ++stream.consumed;
                stream.queue.erase(stream.queue.begin() +
                                   static_cast<std::ptrdiff_t>(k));
                retirePassed(stream.issued, stream.lastConsumed);
                logMiss(core, block);
                pump(core, i);
                return;
            }
        }
    }

    // Look up a previously-recorded stream before logging this
    // occurrence, so the pointer found refers to the prior recurrence.
    if (lookupsInFlight_[core] >= config_.maxLookupsInFlight)
        ++stats_.lookupsSuppressed;
    else
        startLookup(core, block);

    logMiss(core, block);
}

void
StmsPrefetcher::startLookup(CoreId core, Addr block)
{
    ++stats_.lookups;
    auto pointer = index_.lookup(block);
    bool fresh = false;
    if (pointer) {
        ++stats_.lookupHits;
        fresh = historyOf(pointer->core).valid(pointer->seq);
        if (!fresh)
            ++stats_.stalePointers;
    }

    if (config_.ideal) {
        if (fresh)
            startStream(core, *pointer);
        return;
    }

    // Timing + traffic: one memory block read unless the bucket is
    // resident in the on-chip bucket buffer.
    const std::uint64_t bucket = index_.bucketOf(block);
    if (bucketBuffer_.probe(bucket, /*dirty=*/false)) {
        if (fresh)
            startStream(core, *pointer);
        return;
    }

    ++lookupsInFlight_[core];
    const HistoryPointer target =
        fresh ? *pointer : HistoryPointer{0, kInvalidSeq};
    port_->metaRequest(
        TrafficClass::MetaLookup, metaIndexAddr(bucket), 1,
        [this, core, bucket, target](Cycle) {
            --lookupsInFlight_[core];
            if (const BucketWriteback victim =
                    bucketBuffer_.insert(bucket, /*dirty=*/false)) {
                port_->metaRequest(TrafficClass::MetaUpdate,
                                   metaIndexAddr(victim.bucket), 1,
                                   nullptr);
            }
            if (target.seq != kInvalidSeq)
                startStream(core, target);
        });
}

void
StmsPrefetcher::startStream(CoreId core, HistoryPointer pointer)
{
    auto &slots = streams_[core];

    // Duplicate suppression: a mid-stream miss (e.g., a skip gap) can
    // find a pointer into history ground an active stream is already
    // covering; latching there would only duplicate the leader.
    const SeqNum target = pointer.seq + 1;
    const SeqNum backward = 8ULL * config_.addressQueueDepth;
    const SeqNum forward = 2ULL * config_.addressQueueDepth;
    for (const Stream &stream : slots) {
        if (!stream.active || stream.hbOwner != pointer.core)
            continue;
        const SeqNum lo = stream.nextFetchSeq > backward
                              ? stream.nextFetchSeq - backward
                              : 0;
        if (target >= lo && target <= stream.nextFetchSeq + forward) {
            ++stats_.lookupsIgnored;
            return;
        }
    }

    // Slot choice: an idle slot first; otherwise the least healthy /
    // least recently active one. All-healthy slots mean the engine is
    // saturated with good streams — drop the new candidate.
    std::uint32_t victim = slots.size();
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].active) {
            victim = i;
            break;
        }
    }
    if (victim == slots.size()) {
        std::uint32_t worst = slots.size();
        for (std::uint32_t i = 0; i < slots.size(); ++i) {
            if (isHealthy(slots[i]))
                continue;
            if (worst == slots.size() ||
                slots[i].lastActivity < slots[worst].lastActivity)
                worst = i;
        }
        if (worst == slots.size()) {
            ++stats_.lookupsIgnored;
            return;
        }
        victim = worst;
        ++stats_.streamsReplaced;
        endStream(core, victim, /*write_end_mark=*/true);
    }

    ++stats_.streamsStarted;
    Stream &stream = slots[victim];
    const std::uint64_t generation = stream.generation + 1;
    stream = Stream{};
    stream.generation = generation;
    stream.active = true;
    stream.hbOwner = pointer.core;
    // The pointer names the trigger's own entry; the stream is its
    // successors.
    stream.nextFetchSeq = pointer.seq + 1;
    stream.lastConsumed = pointer.seq;
    stream.lastActivity = missClock_;
    fetchMore(core, victim);
}

void
StmsPrefetcher::fetchMore(CoreId core, std::uint32_t slot_index)
{
    Stream &stream = slot(core, slot_index);
    if (!stream.active || stream.fetchInFlight)
        return;
    if (config_.maxStreamDepth != 0 &&
        stream.followed >= config_.maxStreamDepth)
        return;

    HistoryBuffer &hb = historyOf(stream.hbOwner);
    if (stream.nextFetchSeq >= hb.head())
        return;  // Caught up with the log head.
    if (!hb.valid(stream.nextFetchSeq)) {
        // The stream body aged out of the circular buffer.
        endStream(core, slot_index, /*write_end_mark=*/false);
        return;
    }

    if (config_.ideal) {
        fillQueue(core, slot_index);
        pump(core, slot_index);
        return;
    }

    stream.fetchInFlight = true;
    const std::uint64_t generation = stream.generation;
    port_->metaRequest(
        TrafficClass::MetaLookup,
        metaHistoryAddr(stream.hbOwner,
                        stream.nextFetchSeq /
                            config_.entriesPerHistoryBlock),
        1, [this, core, slot_index, generation](Cycle) {
            // The stream this fetch belonged to may have been replaced
            // while the read was in flight; its data is then useless.
            Stream &s = slot(core, slot_index);
            if (s.generation != generation)
                return;
            s.fetchInFlight = false;
            if (!s.active)
                return;
            fillQueue(core, slot_index);
            pump(core, slot_index);
        });
}

void
StmsPrefetcher::fillQueue(CoreId core, std::uint32_t slot_index)
{
    Stream &stream = slot(core, slot_index);
    HistoryBuffer &hb = historyOf(stream.hbOwner);

    // Batched form of the old entry-at-a-time walk: the fetch budget
    // is resolved up front (identical to evaluating the loop
    // conditions per entry — validity is monotone toward the head and
    // nothing appends mid-fill), then one readWindow() copies the
    // whole run out of the packed log.
    std::uint64_t budget = config_.entriesPerHistoryBlock;
    budget = std::min<std::uint64_t>(
        budget, stream.queue.size() < config_.addressQueueDepth
                    ? config_.addressQueueDepth - stream.queue.size()
                    : 0);
    budget = std::min<std::uint64_t>(
        budget, stream.nextFetchSeq < hb.head()
                    ? hb.head() - stream.nextFetchSeq
                    : 0);
    if (config_.maxStreamDepth != 0) {
        budget = std::min<std::uint64_t>(
            budget, stream.followed < config_.maxStreamDepth
                        ? config_.maxStreamDepth - stream.followed
                        : 0);
    }
    if (budget == 0)
        return;
    if (!hb.valid(stream.nextFetchSeq)) {
        // The stream body aged out of the circular buffer.
        endStream(core, slot_index, /*write_end_mark=*/false);
        return;
    }

    const auto fetched = static_cast<std::uint32_t>(budget);
    hb.readWindow(stream.nextFetchSeq, fetched, fetchBlocks_.data(),
                  fetchMarks_.data());
    for (std::uint32_t i = 0; i < fetched; ++i) {
        stream.queue.push_back(QueuedEntry{stream.nextFetchSeq + i,
                                           fetchBlocks_[i],
                                           fetchMarks_[i] != 0});
    }
    stream.nextFetchSeq += fetched;
    stream.followed += fetched;
    stats_.followed += fetched;
}

void
StmsPrefetcher::pump(CoreId core, std::uint32_t slot_index)
{
    Stream &stream = slot(core, slot_index);
    if (!stream.active)
        return;

    while (!stream.queue.empty() && stream.pausedAt == kInvalidAddr) {
        QueuedEntry entry = stream.queue.front();
        if (entry.endMark && config_.useEndMarks) {
            // Pause at the annotation; resume only if the core
            // explicitly requests this address (Sec. 4.5).
            stream.pausedAt = entry.block;
            ++stats_.pauses;
            ++stats_.pumpBreakPause;
            break;
        }
        if (port_->prefetchRoom(*this, core) == 0) {
            ++stats_.pumpBreakRoom;
            break;
        }
        // Confidence window: ramp up with confirmed consumption; the
        // core's slots together may not overrun the prefetch buffer.
        const std::uint64_t window = std::min<std::uint64_t>(
            config_.addressQueueDepth,
            config_.rampBase + config_.rampStep * stream.consumed);
        if (stream.issued.size() >= window) {
            ++stats_.pumpBreakWindow;
            break;
        }
        if (issuedOutstanding(core) >= config_.addressQueueDepth) {
            ++stats_.pumpBreakOutstanding;
            break;
        }
        stream.queue.pop_front();
        const IssueResult result =
            port_->issuePrefetch(*this, core, entry.block);
        if (result == IssueResult::Issued) {
            stream.issued.insert(entry.block, entry.seq);
            stream.lastActivity = missClock_;
        } else if (result == IssueResult::NoResources) {
            stream.queue.push_front(entry);
            break;
        }
        // AlreadyPresent: the block is on chip; the stream advances.
    }

    if (stream.queue.empty())
        ++stats_.queueDry;
    if (stream.active && stream.pausedAt == kInvalidAddr &&
        stream.queue.size() <= config_.refillThreshold) {
        fetchMore(core, slot_index);
    }
}

void
StmsPrefetcher::onPrefetchUsed(CoreId core, Addr block, bool partial)
{
    (void)partial;
    logMiss(core, block);  // Prefetched hits are logged too (Sec. 4.2).

    auto &slots = streams_[core];
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        Stream &stream = slots[i];
        SeqNum *issued_seq = stream.issued.find(block);
        if (issued_seq == nullptr)
            continue;
        if (stream.lastConsumed == kInvalidSeq ||
            *issued_seq > stream.lastConsumed) {
            stream.lastConsumed = *issued_seq;
        }
        stream.issued.erase(issued_seq);
        stream.unusedStreak = 0;
        ++stream.consumed;
        ++stats_.consumed;
        stream.lastActivity = missClock_;
        retirePassed(stream.issued, stream.lastConsumed);
        pump(core, i);
        return;
    }
}

void
StmsPrefetcher::onPrefetchUnused(CoreId core, Addr block)
{
    auto &slots = streams_[core];
    for (std::uint32_t i = 0; i < slots.size(); ++i) {
        Stream &stream = slots[i];
        SeqNum *issued_seq = stream.issued.find(block);
        if (issued_seq == nullptr)
            continue;
        stream.issued.erase(issued_seq);
        ++stream.unusedStreak;
        if (stream.unusedStreak >= config_.killThreshold)
            endStream(core, i, /*write_end_mark=*/true);
        return;
    }
}

void
StmsPrefetcher::onForeignCovered(CoreId core, Addr block)
{
    // A different prefetcher (the base stride engine) covered this
    // miss; it is still part of the correct-path miss sequence.
    logMiss(core, block);
}

void
StmsPrefetcher::onAccessHint(CoreId core, std::span<const Addr> addrs)
{
    (void)core;
    // Warm the bucket lines the upcoming accesses would probe if they
    // miss off-chip. prefetchBatch is __builtin_prefetch only — no
    // stats, no simulated traffic — so this hook cannot perturb model
    // output no matter how chunks are cut.
    index_.prefetchBatch(addrs);
}

void
StmsPrefetcher::endStream(CoreId core, std::uint32_t slot_index,
                          bool write_end_mark)
{
    Stream &stream = slot(core, slot_index);
    if (!stream.active)
        return;
    ++stats_.streamsEnded;
    if (stream.consumed > 0)
        stats_.streamLengths.sample(stream.consumed, stream.consumed);

    // Annotate the entry following the last contiguous
    // successfully-prefetched address (Sec. 4.5).
    if (write_end_mark && config_.useEndMarks &&
        stream.lastConsumed != kInvalidSeq && stream.consumed > 0) {
        HistoryBuffer &hb = historyOf(stream.hbOwner);
        if (hb.setEndMark(stream.lastConsumed + 1)) {
            ++stats_.endMarksWritten;
            if (!config_.ideal) {
                port_->metaRequest(
                    TrafficClass::MetaRecord,
                    metaHistoryAddr(stream.hbOwner,
                                    (stream.lastConsumed + 1) /
                                        config_.entriesPerHistoryBlock),
                    1, nullptr);
            }
        }
    }

    const std::uint64_t generation = stream.generation + 1;
    stream = Stream{};
    stream.generation = generation;
}

void
StmsPrefetcher::resetStats()
{
    stats_ = StmsStats{};
    index_.resetStats();
    bucketBuffer_.resetStats();
    sampler_.resetStats();
}

} // namespace stms
