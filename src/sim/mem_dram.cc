#include "sim/mem_dram.hh"

#include <algorithm>

#include "common/log.hh"

namespace stms
{
namespace
{

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

} // namespace

DramBackend::DramBackend(EventQueue &events, const DramConfig &config)
    : MemBackend(events, config.base, config.channels), config_(config),
      channels_(config.channels)
{
    stms_assert(config_.ranks > 0 && config_.banksPerRank > 0,
                "dram backend needs >= 1 bank");
    stms_assert(config_.rowBytes >= kBlockBytes &&
                    config_.rowBytes % kBlockBytes == 0,
                "rowBytes must be a positive multiple of 64");
    stms_assert(config_.tRcd > 0 && config_.tCas > 0 && config_.tRp > 0,
                "tRCD/tCAS/tRP must be > 0");
    rowBlocks_ = config_.rowBytes / kBlockBytes;
    banksPerChannel_ = config_.ranks * config_.banksPerRank;
    for (Channel &channel : channels_)
        channel.banks.resize(banksPerChannel_);
}

void
DramBackend::decode(Addr addr, std::uint32_t &channel, std::uint32_t &bank,
                    std::uint64_t &row) const
{
    // Fine-grained block interleave across channels; within a channel,
    // sequential blocks fill a row before moving to the next bank, and
    // consecutive rows land in different banks. This gives sequential
    // streams (the history buffer) both row locality and bank-level
    // parallelism.
    const Addr block = blockNumber(addr);
    channel = static_cast<std::uint32_t>(block % config_.channels);
    const Addr local = block / config_.channels;
    bank = static_cast<std::uint32_t>((local / rowBlocks_) %
                                      banksPerChannel_);
    row = local / (static_cast<std::uint64_t>(rowBlocks_) *
                   banksPerChannel_);
}

std::size_t
DramBackend::pendingRequests() const
{
    std::size_t pending = 0;
    for (const Channel &channel : channels_)
        pending += channel.high.size() + channel.low.size();
    return pending;
}

void
DramBackend::enqueue(TrafficClass cls, Priority prio, Addr addr,
                     std::uint32_t blocks, Callback done)
{
    std::uint32_t channelIdx = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    decode(addr, channelIdx, bank, row);

    Channel &channel = channels_[channelIdx];
    auto &queue = (prio == Priority::High) ? channel.high : channel.low;
    queue.push_back(Request{cls, blocks, std::move(done), bank, row});
    issueScan(channelIdx);
}

std::size_t
DramBackend::selectIssuable(const std::deque<Request> &queue,
                            const Channel &channel) const
{
    const Cycle now = events_.now();
    // FR-FCFS within a priority class: oldest row-hit first, then
    // oldest request with a ready bank.
    std::size_t fallback = kNone;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const Request &request = queue[i];
        const Bank &bank = channel.banks[request.bank];
        if (bank.readyAt > now)
            continue;
        if (bank.openRow == request.row)
            return i;
        if (fallback == kNone)
            fallback = i;
    }
    return fallback;
}

void
DramBackend::issueScan(std::uint32_t channelIdx)
{
    Channel &channel = channels_[channelIdx];
    while (true) {
        std::size_t pick = selectIssuable(channel.high, channel);
        auto *queue = &channel.high;
        if (pick == kNone) {
            pick = selectIssuable(channel.low, channel);
            queue = &channel.low;
        }
        if (pick == kNone)
            break;
        Request request = std::move((*queue)[pick]);
        queue->erase(queue->begin() +
                     static_cast<std::ptrdiff_t>(pick));
        issue(channel, std::move(request));
    }
    scheduleKick(channelIdx);
}

void
DramBackend::issue(Channel &channel, Request request)
{
    Bank &bank = channel.banks[request.bank];
    const Cycle start = events_.now();
    const auto cls = static_cast<std::size_t>(request.cls);

    Cycle latency = 0;
    bool activates = false;
    if (bank.openRow == request.row) {
        // Row hit: column access only.
        latency = config_.tCas;
        ++row_.hits[cls];
    } else if (bank.openRow == kNoRow) {
        // Bank precharged: activate then access.
        latency = config_.tRcd + config_.tCas;
        bank.lastActAt = start;
        activates = true;
        ++row_.empties[cls];
    } else {
        // Row conflict: precharge (respecting tRAS since the last
        // activate), re-activate, then access.
        const Cycle prechargeAt =
            std::max(start, bank.lastActAt + config_.tRas);
        const Cycle activateAt = prechargeAt + config_.tRp;
        latency = (activateAt - start) + config_.tRcd + config_.tCas;
        bank.lastActAt = activateAt;
        activates = true;
        ++row_.conflicts[cls];
    }
    if (activates)
        bank.openRow = request.row;

    const Cycle data_at = start + latency;
    const Cycle occupancy = static_cast<Cycle>(request.blocks) *
                            config_.base.transferCycles;
    // Bus slots are reserved in issue order and never overlap, so
    // busyCycles <= elapsed x channels by construction.
    const Cycle bus_start = std::max(data_at, channel.busFreeAt);
    channel.busFreeAt = bus_start + occupancy;
    stats_.busyCycles += occupancy;

    bank.readyAt = data_at;
    if (config_.policy == PagePolicy::Closed) {
        bank.readyAt = data_at + config_.tRp;
        bank.openRow = kNoRow;
    }

    const Cycle done_at = bus_start + occupancy;
    if (request.done) {
        events_.scheduleAt(done_at,
                           [cb = std::move(request.done), done_at]() {
                               cb(done_at);
                           });
    }
}

void
DramBackend::scheduleKick(std::uint32_t channelIdx)
{
    Channel &channel = channels_[channelIdx];
    Cycle wake = kNoKick;
    for (const auto *queue : {&channel.high, &channel.low})
        for (const Request &request : *queue)
            wake = std::min(wake,
                            channel.banks[request.bank].readyAt);
    if (wake == kNoKick || wake >= channel.kickAt)
        return;
    channel.kickAt = wake;
    events_.scheduleAt(wake, [this, channelIdx, wake]() {
        Channel &ch = channels_[channelIdx];
        if (ch.kickAt != wake)
            return;
        ch.kickAt = kNoKick;
        issueScan(channelIdx);
    });
}

} // namespace stms
