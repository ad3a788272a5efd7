#include "sim/mem_backend.hh"

#include <sstream>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/mem_dram.hh"
#include "sim/mem_queued.hh"

namespace stms
{
namespace
{

/** A positive decimal integer: parseDecimal() and not zero. */
bool
parsePositive(const std::string &text, std::uint64_t &value)
{
    std::uint64_t parsed = 0;
    if (!parseDecimal(text, parsed) || parsed == 0)
        return false;
    value = parsed;
    return true;
}

/** Largest accepted value of numeric backend parameter @p key. */
std::uint64_t
paramLimit(const std::string &key)
{
    if (key == "channels")
        return kMaxMemChannels;
    if (key == "ranks" || key == "banks")
        return kMaxMemBanks;
    if (key == "row-bytes")
        return kMaxRowBytes;
    return kMaxMemCycles;  // latency, transfer, trcd, tcas, trp, tras.
}

} // namespace

std::uint64_t
MemCtrlStats::totalBytes() const
{
    std::uint64_t total = 0;
    for (std::uint64_t value : bytes)
        total += value;
    return total;
}

std::uint64_t
MemCtrlStats::overheadBytes() const
{
    return totalBytes() -
           bytesFor(TrafficClass::DemandRead) -
           bytesFor(TrafficClass::DemandWriteback);
}

const char *
memBackendKindName(MemBackendKind kind)
{
    switch (kind) {
      case MemBackendKind::Fixed:
        return "fixed";
      case MemBackendKind::Queued:
        return "queued";
      case MemBackendKind::Dram:
        return "dram";
    }
    return "unknown";
}

std::string
MemBackendSpec::canonical() const
{
    std::ostringstream out;
    out << memBackendKindName(kind);
    if (banksPerRank != 0)
        out << ",banks=" << banksPerRank;
    if (channels != 0)
        out << ",channels=" << channels;
    if (accessLatency != 0)
        out << ",latency=" << accessLatency;
    if (policy == PagePolicy::Closed)
        out << ",policy=closed";
    if (ranks != 0)
        out << ",ranks=" << ranks;
    if (rowBytes != 0)
        out << ",row-bytes=" << rowBytes;
    if (tCas != 0)
        out << ",tcas=" << tCas;
    if (tRas != 0)
        out << ",tras=" << tRas;
    if (tRcd != 0)
        out << ",trcd=" << tRcd;
    if (tRp != 0)
        out << ",trp=" << tRp;
    if (transferCycles != 0)
        out << ",transfer=" << transferCycles;
    return out.str();
}

bool
parseMemBackendSpec(const std::string &text, MemBackendSpec &spec,
                    std::string &error)
{
    std::vector<std::string> parts;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        const auto comma = text.find(',', start);
        if (comma == std::string::npos) {
            parts.push_back(text.substr(start));
            break;
        }
        parts.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }

    MemBackendSpec result;
    const std::string &name = parts.front();
    if (name == "fixed") {
        result.kind = MemBackendKind::Fixed;
    } else if (name == "queued") {
        result.kind = MemBackendKind::Queued;
    } else if (name == "dram") {
        result.kind = MemBackendKind::Dram;
    } else {
        error = "unknown memory backend '" + name +
                "' (expected fixed, queued, or dram)";
        return false;
    }
    const bool dram = result.kind == MemBackendKind::Dram;

    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &part = parts[i];
        const auto eq = part.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = "bad backend parameter '" + part +
                    "' (expected key=value)";
            return false;
        }
        const std::string key = part.substr(0, eq);
        const std::string raw = part.substr(eq + 1);

        if (key == "policy") {
            if (!dram) {
                error = "policy= is only valid for the dram backend";
                return false;
            }
            if (raw == "open") {
                result.policy = PagePolicy::Open;
            } else if (raw == "closed") {
                result.policy = PagePolicy::Closed;
            } else {
                error = "policy must be open or closed, got '" + raw + "'";
                return false;
            }
            continue;
        }

        std::uint64_t value = 0;
        if (!parsePositive(raw, value)) {
            error = "backend parameter " + key +
                    " needs a positive integer, got '" + raw + "'";
            return false;
        }

        if (key == "latency") {
            if (dram) {
                error = "latency= is not valid for the dram backend "
                        "(use trcd/tcas/trp/tras)";
                return false;
            }
            result.accessLatency = value;
        } else if (key == "transfer") {
            result.transferCycles = value;
        } else if (key == "channels") {
            if (result.kind == MemBackendKind::Fixed) {
                error = "channels= is not valid for the fixed backend";
                return false;
            }
            result.channels = static_cast<std::uint32_t>(value);
        } else if (key == "ranks" && dram) {
            result.ranks = static_cast<std::uint32_t>(value);
        } else if (key == "banks" && dram) {
            result.banksPerRank = static_cast<std::uint32_t>(value);
        } else if (key == "row-bytes" && dram) {
            if (value % kBlockBytes != 0) {
                error = "row-bytes must be a multiple of 64";
                return false;
            }
            result.rowBytes = static_cast<std::uint32_t>(value);
        } else if (key == "trcd" && dram) {
            result.tRcd = value;
        } else if (key == "tcas" && dram) {
            result.tCas = value;
        } else if (key == "trp" && dram) {
            result.tRp = value;
        } else if (key == "tras" && dram) {
            result.tRas = value;
        } else {
            error = "unknown backend parameter '" + key + "' for " +
                    memBackendKindName(result.kind);
            return false;
        }
        // Checked on the 64-bit value; the narrowed fields above
        // reach @p spec only on success.
        if (value > paramLimit(key)) {
            error = "backend parameter " + key + " must be at most " +
                    std::to_string(paramLimit(key)) + ", got '" + raw +
                    "'";
            return false;
        }
    }

    if (dram) {
        // Each factor is at most kMaxMemBanks, so this cannot wrap.
        const std::uint64_t banks =
            std::uint64_t{result.channels != 0 ? result.channels : 1} *
            (result.ranks != 0 ? result.ranks : kDramDefaultRanks) *
            (result.banksPerRank != 0 ? result.banksPerRank
                                      : kDramDefaultBanksPerRank);
        if (banks > kMaxMemBanks) {
            error = "channels x ranks x banks must be at most " +
                    std::to_string(kMaxMemBanks) + ", got " +
                    std::to_string(banks);
            return false;
        }
    }

    // Normalize explicit defaults back to "inherit" so two spellings
    // of the same configuration share one canonical form.
    if (result.accessLatency == MemCtrlConfig{}.accessLatency)
        result.accessLatency = 0;
    if (result.transferCycles == MemCtrlConfig{}.transferCycles)
        result.transferCycles = 0;
    const std::uint32_t defaultChannels =
        result.kind == MemBackendKind::Queued ? kQueuedDefaultChannels : 1;
    if (result.channels == defaultChannels)
        result.channels = 0;
    if (result.ranks == kDramDefaultRanks)
        result.ranks = 0;
    if (result.banksPerRank == kDramDefaultBanksPerRank)
        result.banksPerRank = 0;
    if (result.rowBytes == kDramDefaultRowBytes)
        result.rowBytes = 0;
    if (result.tRcd == kDramDefaultRcd)
        result.tRcd = 0;
    if (result.tCas == kDramDefaultCas)
        result.tCas = 0;
    if (result.tRp == kDramDefaultRp)
        result.tRp = 0;
    if (result.tRas == kDramDefaultRas)
        result.tRas = 0;

    spec = result;
    return true;
}

std::uint64_t
RowBufferStats::totalAccesses() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNumTrafficClasses; ++i)
        total += hits[i] + empties[i] + conflicts[i];
    return total;
}

namespace
{

double
hitRateOver(const RowBufferStats &row,
            std::initializer_list<TrafficClass> classes)
{
    std::uint64_t hit = 0;
    std::uint64_t total = 0;
    for (TrafficClass cls : classes) {
        const auto i = static_cast<std::size_t>(cls);
        hit += row.hits[i];
        total += row.hits[i] + row.empties[i] + row.conflicts[i];
    }
    return total == 0 ? 0.0
                      : static_cast<double>(hit) /
                        static_cast<double>(total);
}

} // namespace

double
RowBufferStats::demandHitRate() const
{
    return hitRateOver(*this, {TrafficClass::DemandRead,
                               TrafficClass::DemandWriteback});
}

double
RowBufferStats::metaHitRate() const
{
    return hitRateOver(*this, {TrafficClass::Prefetch,
                               TrafficClass::MetaLookup,
                               TrafficClass::MetaUpdate,
                               TrafficClass::MetaRecord});
}

MemBackend::MemBackend(EventQueue &events, const MemCtrlConfig &config,
                       std::uint32_t channels)
    : events_(events), numChannels_(channels),
      functional_(config.functional)
{
    stms_assert(config.transferCycles > 0, "transferCycles must be > 0");
    stms_assert(channels > 0, "memory backend needs >= 1 channel");
}

void
MemBackend::request(TrafficClass cls, Priority prio, Addr addr,
                    std::uint32_t blocks, Callback done)
{
    stms_assert(blocks > 0, "memory request of zero blocks");
    const auto idx = static_cast<std::size_t>(cls);
    ++stats_.requests[idx];
    stats_.bytes[idx] += static_cast<std::uint64_t>(blocks) * kBlockBytes;
    if (prio == Priority::High)
        ++stats_.highPrioRequests;
    else
        ++stats_.lowPrioRequests;

    if (functional_) {
        // Zero-latency completion; traffic still counted above.
        if (done)
            done(events_.now());
        return;
    }
    enqueue(cls, prio, addr, blocks, std::move(done));
}

double
MemBackend::utilization(Cycle elapsed) const
{
    const double capacity =
        static_cast<double>(elapsed) * static_cast<double>(numChannels_);
    return elapsed == 0 ? 0.0
                        : static_cast<double>(stats_.busyCycles) / capacity;
}

std::unique_ptr<MemBackend>
makeMemBackend(EventQueue &events, const MemBackendSpec &spec,
               const MemCtrlConfig &config)
{
    MemCtrlConfig base = config;
    if (spec.accessLatency != 0)
        base.accessLatency = spec.accessLatency;
    if (spec.transferCycles != 0)
        base.transferCycles = spec.transferCycles;

    switch (spec.kind) {
      case MemBackendKind::Fixed:
        return std::make_unique<QueuedBackend>(events, base, 1);
      case MemBackendKind::Queued:
        return std::make_unique<QueuedBackend>(
            events, base,
            spec.channels != 0 ? spec.channels : kQueuedDefaultChannels);
      case MemBackendKind::Dram: {
        DramConfig dram;
        dram.base = base;
        if (spec.channels != 0)
            dram.channels = spec.channels;
        if (spec.ranks != 0)
            dram.ranks = spec.ranks;
        if (spec.banksPerRank != 0)
            dram.banksPerRank = spec.banksPerRank;
        if (spec.rowBytes != 0)
            dram.rowBytes = spec.rowBytes;
        if (spec.tRcd != 0)
            dram.tRcd = spec.tRcd;
        if (spec.tCas != 0)
            dram.tCas = spec.tCas;
        if (spec.tRp != 0)
            dram.tRp = spec.tRp;
        if (spec.tRas != 0)
            dram.tRas = spec.tRas;
        dram.policy = spec.policy;
        return std::make_unique<DramBackend>(events, dram);
      }
    }
    stms_fatal("unreachable memory backend kind");
}

} // namespace stms
