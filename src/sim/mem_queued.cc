#include "sim/mem_queued.hh"

namespace stms
{

QueuedBackend::QueuedBackend(EventQueue &events, const MemCtrlConfig &config,
                             std::uint32_t channels)
    : MemBackend(events, config, channels),
      accessLatency_(config.accessLatency),
      transferCycles_(config.transferCycles), channels_(channels)
{
}

std::size_t
QueuedBackend::pendingRequests() const
{
    std::size_t pending = 0;
    for (const Channel &channel : channels_)
        pending += channel.high.size() + channel.low.size();
    return pending;
}

void
QueuedBackend::enqueue(TrafficClass, Priority prio, Addr addr,
                       std::uint32_t blocks, Callback done)
{
    Channel &channel = channels_[blockNumber(addr) % channels_.size()];
    auto &queue = (prio == Priority::High) ? channel.high : channel.low;
    queue.push_back(Request{blocks, std::move(done)});
    if (!channel.busy)
        grantNext(channel);
}

void
QueuedBackend::grantNext(Channel &channel)
{
    auto &queue = !channel.high.empty() ? channel.high : channel.low;
    if (queue.empty()) {
        channel.busy = false;
        return;
    }
    Request request = std::move(queue.front());
    queue.pop_front();
    startTransfer(channel, std::move(request));
}

void
QueuedBackend::startTransfer(Channel &channel, Request request)
{
    channel.busy = true;
    const Cycle occupancy =
        static_cast<Cycle>(request.blocks) * transferCycles_;
    stats_.busyCycles += occupancy;

    // Data is available one access latency plus the transfer time
    // after the grant; the channel frees up after the transfer alone,
    // so later requests pipeline behind the DRAM access of this one.
    const Cycle data_ready = events_.now() + accessLatency_ + occupancy;
    if (request.done) {
        events_.scheduleAt(data_ready,
                           [cb = std::move(request.done), data_ready]() {
                               cb(data_ready);
                           });
    }
    events_.schedule(occupancy,
                     [this, &channel]() { grantNext(channel); });
}

} // namespace stms
