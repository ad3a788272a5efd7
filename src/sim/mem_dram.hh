/**
 * @file
 * Bank/row-timing DRAM backend.
 *
 * Models channels x ranks x banks with per-bank row buffers and
 * tRCD/tCAS/tRP/tRAS timing, scheduled FR-FCFS with the paper's
 * demand-over-meta-data arbitration layered on top: whenever a bank
 * becomes available, pending requests are considered in the order
 * (demand row-hit, demand FIFO, low-priority row-hit, low-priority
 * FIFO). Row-buffer outcomes are counted per traffic class, which is
 * what lets mem_tech_sweep compare the locality of the meta-data
 * stream (sequential history-buffer appends) against demand misses.
 *
 * Simplifications, documented in docs/ARCHITECTURE.md: a request's
 * blocks burst from one (bank, row); ranks only multiply the bank
 * count; the data bus is reserved at issue time, so bus contention
 * delays completion but not bank scheduling.
 */

#ifndef STMS_SIM_MEM_DRAM_HH
#define STMS_SIM_MEM_DRAM_HH

#include <deque>
#include <limits>
#include <vector>

#include "sim/mem_backend.hh"

namespace stms
{

/** DRAM geometry and timing; defaults match kDramDefault* (60/60/60
 *  cycles tRCD/tCAS/tRP = the fixed model's 180-cycle latency charged
 *  only on the row-conflict path). */
struct DramConfig
{
    /** Carries functional mode and the per-block burst cycles. */
    MemCtrlConfig base;
    std::uint32_t channels = 1;
    std::uint32_t ranks = kDramDefaultRanks;
    std::uint32_t banksPerRank = kDramDefaultBanksPerRank;
    std::uint32_t rowBytes = kDramDefaultRowBytes;
    Cycle tRcd = kDramDefaultRcd;
    Cycle tCas = kDramDefaultCas;
    Cycle tRp = kDramDefaultRp;
    Cycle tRas = kDramDefaultRas;
    PagePolicy policy = PagePolicy::Open;
};

class DramBackend final : public MemBackend
{
  public:
    DramBackend(EventQueue &events, const DramConfig &config);

    std::size_t pendingRequests() const override;

  private:
    /** Sentinel: no row open in this bank. */
    static constexpr std::uint64_t kNoRow =
        std::numeric_limits<std::uint64_t>::max();
    /** Sentinel: no wake-up event pending for this channel. */
    static constexpr Cycle kNoKick = std::numeric_limits<Cycle>::max();

    struct Request
    {
        TrafficClass cls;
        std::uint32_t blocks;
        Callback done;
        std::uint32_t bank;
        std::uint64_t row;
    };

    struct Bank
    {
        std::uint64_t openRow = kNoRow;
        /** Earliest cycle the bank can accept another access. */
        Cycle readyAt = 0;
        /** Activation time of the open row (for tRAS). */
        Cycle lastActAt = 0;
    };

    struct Channel
    {
        std::deque<Request> high;
        std::deque<Request> low;
        std::vector<Bank> banks;
        /** Bus is reserved back-to-back; next free cycle. */
        Cycle busFreeAt = 0;
        Cycle kickAt = kNoKick;
    };

    void enqueue(TrafficClass cls, Priority prio, Addr addr,
                 std::uint32_t blocks, Callback done) override;
    void decode(Addr addr, std::uint32_t &channel, std::uint32_t &bank,
                std::uint64_t &row) const;
    /** Issue every currently-serviceable request on @p channel. */
    void issueScan(std::uint32_t channelIdx);
    /** Pick the best issuable request; kNone if banks are all busy. */
    std::size_t selectIssuable(const std::deque<Request> &queue,
                               const Channel &channel) const;
    void issue(Channel &channel, Request request);
    void scheduleKick(std::uint32_t channelIdx);

    DramConfig config_;
    std::uint32_t rowBlocks_;
    std::uint32_t banksPerChannel_;
    std::vector<Channel> channels_;
};

} // namespace stms

#endif // STMS_SIM_MEM_DRAM_HH
