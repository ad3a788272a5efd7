/**
 * @file
 * google-benchmark micro-benchmarks of the data-plane structures:
 * index-table lookup/update, bucket-buffer probe/insert,
 * history-buffer append, prefetch-buffer operations, cache accesses,
 * and the event-queue kernel. These bound the simulator's own
 * throughput, not the modeled hardware.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/addr_map.hh"
#include "common/arena.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "core/bucket_buffer.hh"
#include "core/history_buffer.hh"
#include "core/index_table.hh"
#include "prefetch/prefetch_buffer.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/run.hh"
#include "workload/generators.hh"
#include "workload/workloads.hh"

using namespace stms;

namespace
{

void
BM_IndexTableUpdate(benchmark::State &state)
{
    IndexTable table(16ULL << 20);
    Rng rng(1);
    std::uint64_t seq = 0;
    for (auto _ : state) {
        const Addr block = blockAddress(rng.below(1ULL << 24));
        table.update(block, HistoryPointer{0, seq++});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexTableUpdate);

void
BM_IndexTableLookup(benchmark::State &state)
{
    IndexTable table(16ULL << 20);
    Rng rng(2);
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
        table.update(blockAddress(rng.below(1ULL << 24)),
                     HistoryPointer{0, i});
    }
    Rng probe(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.lookup(blockAddress(probe.below(1ULL << 24))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexTableLookup);

/**
 * The index-update path through the on-chip bucket buffer: probe, and
 * on a miss install the bucket (dirty) and take the write-back victim,
 * at the paper's 128 buckets. Keys are the bucket numbers of blocks
 * drawn uniformly from a pool of 370, so about 128 / 370 of probes hit:
 * fig7's bucket-buffer hit ratio at records=65536 is 0.345.
 */
void
BM_BucketBuffer(benchmark::State &state)
{
    constexpr std::uint64_t kIndexBuckets = (16ULL << 20) / kBlockBytes;
    constexpr std::uint64_t kBlocks = 370;
    BucketBuffer buffer(128);
    Rng rng(7);
    std::uint64_t writebacks = 0;
    for (auto _ : state) {
        const std::uint64_t bucket =
            hashToBucket(rng.below(kBlocks), kIndexBuckets);
        if (!buffer.probe(bucket, true))
            writebacks += buffer.insert(bucket, true).needed;
        benchmark::DoNotOptimize(writebacks);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["hit_ratio"] =
        static_cast<double>(buffer.stats().hits) /
        static_cast<double>(buffer.stats().hits + buffer.stats().misses);
}
BENCHMARK(BM_BucketBuffer);

void
BM_HistoryBufferAppend(benchmark::State &state)
{
    HistoryBuffer buffer(1ULL << 20);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            buffer.append(blockAddress(rng.below(1ULL << 24))));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryBufferAppend);

void
BM_PrefetchBuffer(benchmark::State &state)
{
    PrefetchBuffer buffer(32);
    Rng rng(5);
    for (auto _ : state) {
        const Addr block = blockAddress(rng.below(1024));
        if (!buffer.consume(block))
            buffer.insert(block);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchBuffer);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{"bench-l2", 8 * 1024 * 1024, 16});
    Rng rng(6);
    for (auto _ : state) {
        const Addr block = blockAddress(rng.below(1ULL << 18));
        if (!cache.access(block, false))
            cache.fill(block);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/**
 * The cache-probe fast path: repeated hits on a hot set, i.e. the
 * per-record L1 probe every simulated access pays (inlined
 * access(): tag scan and shift to MRU). A regression here is a regression
 * on every record of every sweep, visible without running one.
 */
void
BM_CacheProbeHit(benchmark::State &state)
{
    Cache cache(CacheConfig{"bench-l1", 64 * 1024, 2});
    // Resident hot set, as the L1 sees between misses.
    constexpr std::uint64_t kHotBlocks = 256;
    for (std::uint64_t b = 0; b < kHotBlocks; ++b)
        cache.fill(blockAddress(b));
    Rng rng(8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(blockAddress(rng.below(kHotBlocks)), false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeHit);

/**
 * The batched record-dispatch loop, end to end: one functional-mode
 * runTrace() over a pregenerated trace — TraceCore walking cursor
 * chunks with a plain pointer, the warmup-barrier counter, the L1
 * fast path, and the event queue behind it. Items = trace records,
 * so items/sec here is the same records/sec unit sweepbench reports;
 * this is the bench that catches inner-loop regressions without a
 * full sweep.
 */
void
BM_RecordDispatch(benchmark::State &state)
{
    WorkloadSpec spec = makeWorkload("oltp-db2", 16384);
    const Trace trace = WorkloadGenerator(spec).generate();
    RunConfig config;
    config.sim = defaultSimConfig(true);
    for (auto _ : state) {
        RunOutput out = runTrace(trace, config);
        benchmark::DoNotOptimize(out.sim.mem.accesses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.totalRecords()));
}
BENCHMARK(BM_RecordDispatch);

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue queue;
        std::uint64_t count = 0;
        for (int i = 0; i < 1000; ++i) {
            queue.schedule(static_cast<Cycle>(i % 37),
                           [&count]() { ++count; });
        }
        queue.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

/**
 * Steady-state event throughput: a fixed population of self-
 * rescheduling events, the pattern a running simulation puts on the
 * queue (cores and the memory controller keep a bounded number of
 * events in flight and every pop schedules a successor). This is the
 * bench that shows node allocation churn: event nodes come from
 * chunks that are never freed while the queue lives, so after warm-up
 * every schedule reuses a freed node.
 */
void
BM_EventQueueSteadyState(benchmark::State &state)
{
    const std::int64_t population = state.range(0);
    EventQueue queue;
    std::uint64_t executed = 0;
    // Self-rescheduling closure: each firing schedules the next, with
    // a varying delay so the wheel's buckets and bitmap scan actually
    // get exercised.
    std::function<void()> tick;
    Cycle delay = 1;
    tick = [&]() {
        ++executed;
        delay = delay % 41 + 1;
        queue.schedule(delay, tick);
    };
    for (std::int64_t i = 0; i < population; ++i)
        queue.schedule(static_cast<Cycle>(i % 13), tick);

    static constexpr std::uint64_t kBatch = 1024;
    for (auto _ : state) {
        const std::uint64_t target = executed + kBatch;
        while (executed < target)
            queue.runUntil(queue.now() + 8);
        benchmark::DoNotOptimize(executed);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(64)->Arg(1024)->Arg(16384);

/** History-window scan (stream re-lookup shape): one linear sweep
 *  over a wrapped bounded log. */
void
BM_HistoryScanWindow(benchmark::State &state)
{
    constexpr std::uint64_t kCapacity = 4096;
    HistoryBuffer buffer(kCapacity);
    Rng rng(21);
    for (std::uint64_t i = 0; i < kCapacity + kCapacity / 2; ++i)
        buffer.append(blockAddress(rng.below(1ULL << 16)));
    const SeqNum oldest = buffer.head() - kCapacity;
    Rng probe(22);
    for (auto _ : state) {
        benchmark::DoNotOptimize(buffer.scanWindow(
            oldest, blockAddress(probe.below(1ULL << 16))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryScanWindow);

/** MSHR-file churn: the probe/insert/extract mix every off-chip
 *  transfer puts on the flat map, at demand-window occupancy. */
void
BM_FlatAddrMapChurn(benchmark::State &state)
{
    FlatAddrMap<std::uint64_t> map;
    constexpr std::uint64_t kWindow = 32;  // in-flight blocks
    for (std::uint64_t i = 0; i < kWindow; ++i)
        map.emplace(blockAddress(i), std::uint64_t{i});
    Rng rng(23);
    std::uint64_t next = kWindow;
    for (auto _ : state) {
        // 3 probes (demand checks) per fill+extract pair.
        for (int p = 0; p < 3; ++p) {
            benchmark::DoNotOptimize(
                map.contains(blockAddress(rng.below(2 * kWindow))));
        }
        const std::size_t victim =
            static_cast<std::size_t>(rng.below(map.size()));
        benchmark::DoNotOptimize(map.take(victim));
        map.emplace(blockAddress(next), std::uint64_t{next});
        ++next;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatAddrMapChurn);

/**
 * Per-run structure teardown/rebuild cost: the allocation storm at
 * every sweep point. Arg(0)=0 takes it from the global heap (no
 * arena installed), Arg(0)=1 from a reused ScopedRunArena — the
 * difference is what sweep workers stop paying per run.
 */
void
BM_ArenaRunCycle(benchmark::State &state)
{
    const bool arena = state.range(0) != 0;
    constexpr std::size_t kBuffers = 64;
    constexpr std::size_t kElems = 4096;
    for (auto _ : state) {
        std::optional<ScopedRunArena> scope;
        if (arena)
            scope.emplace();
        std::vector<ArenaBuffer<std::uint64_t>> buffers;
        buffers.reserve(kBuffers);
        for (std::size_t i = 0; i < kBuffers; ++i) {
            buffers.emplace_back(kElems);
            buffers.back()[0] = i;        // touch first...
            buffers.back()[kElems - 1] = i;  // ...and last page
        }
        benchmark::DoNotOptimize(buffers.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBuffers));
}
BENCHMARK(BM_ArenaRunCycle)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"arena"});

} // namespace

BENCHMARK_MAIN();
