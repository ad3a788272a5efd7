/**
 * @file
 * Queued memory backend: N copies of Table 1's channel.
 *
 * Each data channel has its own high/low priority queues and transfer
 * pipeline. Reads deliver data one access latency plus the transfer
 * after the grant; the channel stays busy for transferCycles per
 * block, which is what bounds peak bandwidth. Blocks are
 * address-interleaved across channels (channel = block mod N), the
 * standard fine-grained interleaving that spreads both the demand
 * stream and STMS's sequential history-buffer stream. The `fixed`
 * backend is this model at one channel.
 */

#ifndef STMS_SIM_MEM_QUEUED_HH
#define STMS_SIM_MEM_QUEUED_HH

#include <deque>
#include <vector>

#include "sim/mem_backend.hh"

namespace stms
{

class QueuedBackend final : public MemBackend
{
  public:
    QueuedBackend(EventQueue &events, const MemCtrlConfig &config,
                  std::uint32_t channels);

    std::size_t pendingRequests() const override;

  private:
    struct Request
    {
        std::uint32_t blocks;
        Callback done;
    };

    struct Channel
    {
        std::deque<Request> high;
        std::deque<Request> low;
        bool busy = false;
    };

    void enqueue(TrafficClass cls, Priority prio, Addr addr,
                 std::uint32_t blocks, Callback done) override;
    void grantNext(Channel &channel);
    void startTransfer(Channel &channel, Request request);

    Cycle accessLatency_;
    Cycle transferCycles_;
    std::vector<Channel> channels_;
};

} // namespace stms

#endif // STMS_SIM_MEM_QUEUED_HH
