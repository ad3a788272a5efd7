/** @file Unit tests for the synthetic workload generator. */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "workload/workloads.hh"

namespace stms
{
namespace
{

WorkloadSpec
tinySpec()
{
    WorkloadSpec spec;
    spec.name = "tiny";
    spec.numCores = 2;
    spec.recordsPerCore = 20000;
    spec.seed = 77;
    spec.minReuseRecords = 500;
    spec.maxReuseRecords = 5000;
    spec.noiseFraction = 0.2;
    spec.hotFraction = 0.2;
    spec.scanFraction = 0.1;
    spec.writeFraction = 0.1;
    spec.dependentProb = 0.5;
    return spec;
}

TEST(Generator, ProducesRequestedShape)
{
    WorkloadGenerator generator(tinySpec());
    Trace trace = generator.generate();
    EXPECT_EQ(trace.numCores(), 2u);
    for (const auto &records : trace.perCore)
        EXPECT_EQ(records.size(), 20000u);
}

TEST(Generator, DeterministicForSameSpec)
{
    WorkloadGenerator a(tinySpec()), b(tinySpec());
    Trace ta = a.generate();
    Trace tb = b.generate();
    ASSERT_EQ(ta.totalRecords(), tb.totalRecords());
    for (CoreId c = 0; c < ta.numCores(); ++c) {
        for (std::size_t i = 0; i < ta.perCore[c].size(); ++i) {
            ASSERT_EQ(ta.perCore[c][i].addr, tb.perCore[c][i].addr);
            ASSERT_EQ(ta.perCore[c][i].flags, tb.perCore[c][i].flags);
        }
    }
}

TEST(Generator, SeedsChangeTheTrace)
{
    WorkloadSpec other = tinySpec();
    other.seed = 78;
    Trace ta = WorkloadGenerator(tinySpec()).generate();
    Trace tb = WorkloadGenerator(other).generate();
    std::size_t same = 0;
    for (std::size_t i = 0; i < 1000; ++i)
        same += ta.perCore[0][i].addr == tb.perCore[0][i].addr ? 1 : 0;
    EXPECT_LT(same, 100u);
}

TEST(Generator, CoresUseDisjointAddressSpaces)
{
    Trace trace = WorkloadGenerator(tinySpec()).generate();
    std::unordered_set<Addr> core0;
    for (const auto &record : trace.perCore[0])
        core0.insert(blockNumber(record.addr));
    for (const auto &record : trace.perCore[1])
        EXPECT_EQ(core0.count(blockNumber(record.addr)), 0u);
}

TEST(Generator, MixFractionsApproximatelyRespected)
{
    Trace trace = WorkloadGenerator(tinySpec()).generate();
    std::map<std::uint64_t, std::uint64_t> region_counts;
    for (const auto &record : trace.perCore[0])
        ++region_counts[(record.addr >> 36) & 0xF];
    const double n = static_cast<double>(trace.perCore[0].size());
    // Region tags: 1=stream 2=noise 3=hot 4=scan.
    EXPECT_NEAR(region_counts[2] / n, 0.2, 0.03);
    EXPECT_NEAR(region_counts[3] / n, 0.2, 0.03);
    EXPECT_NEAR(region_counts[4] / n, 0.1, 0.03);
    EXPECT_NEAR(region_counts[1] / n, 0.5, 0.03);
}

TEST(Generator, WriteAndDependenceFractions)
{
    Trace trace = WorkloadGenerator(tinySpec()).generate();
    double writes = 0, dependent = 0;
    const auto &records = trace.perCore[0];
    for (const auto &record : records) {
        writes += record.isWrite() ? 1 : 0;
        dependent += record.isDependent() ? 1 : 0;
    }
    EXPECT_NEAR(writes / records.size(), 0.1, 0.02);
    EXPECT_NEAR(dependent / records.size(), 0.5, 0.03);
}

TEST(Generator, StreamsActuallyRecur)
{
    WorkloadSpec spec = tinySpec();
    spec.noiseFraction = 0;
    spec.hotFraction = 0;
    spec.scanFraction = 0;
    spec.meanVisits = 6.0;
    Trace trace = WorkloadGenerator(spec).generate();
    std::unordered_map<Addr, int> visits;
    for (const auto &record : trace.perCore[0])
        ++visits[record.addr];
    std::uint64_t recurring = 0;
    for (const auto &[addr, count] : visits)
        recurring += count > 1 ? 1 : 0;
    // With meanVisits 6, most blocks are visited more than once.
    EXPECT_GT(static_cast<double>(recurring) /
                  static_cast<double>(visits.size()),
              0.4);
}

TEST(Generator, OnceFractionSuppressesRecurrence)
{
    WorkloadSpec spec = tinySpec();
    spec.noiseFraction = 0;
    spec.hotFraction = 0;
    spec.scanFraction = 0;
    spec.onceFraction = 1.0;  // Nothing recurs (DSS).
    Trace trace = WorkloadGenerator(spec).generate();
    std::unordered_map<Addr, int> visits;
    for (const auto &record : trace.perCore[0])
        ++visits[record.addr];
    for (const auto &[addr, count] : visits)
        EXPECT_EQ(count, 1) << "visit-once stream recurred";
}

TEST(Generator, LoopSingleStreamRepeatsIteration)
{
    WorkloadSpec spec = tinySpec();
    spec.loopSingleStream = true;
    spec.minStreamLen = 500;
    spec.maxStreamLen = 500;
    spec.noiseFraction = 0;
    spec.hotFraction = 0;
    spec.scanFraction = 0;
    spec.recordsPerCore = 2000;
    Trace trace = WorkloadGenerator(spec).generate();
    const auto &records = trace.perCore[0];
    // Iterations replay the identical sequence.
    for (std::size_t i = 0; i + 500 < records.size(); ++i)
        EXPECT_EQ(records[i].addr, records[i + 500].addr);
    // Footprint equals one iteration.
    std::unordered_set<Addr> blocks;
    for (const auto &record : records)
        blocks.insert(record.addr);
    EXPECT_EQ(blocks.size(), 500u);
}

TEST(Generator, BurstsEmitBackToBackStreamRecords)
{
    WorkloadSpec spec = tinySpec();
    spec.missBurstMax = 3;
    spec.thinkMin = 100;
    spec.thinkMax = 200;
    Trace trace = WorkloadGenerator(spec).generate();
    std::uint64_t tiny_think = 0;
    for (const auto &record : trace.perCore[0])
        tiny_think += record.think < 100 ? 1 : 0;
    EXPECT_GT(tiny_think, 0u);  // Burst members use think 2..10.
}

TEST(LaneGeneratorTest, ChunkedFillsReproduceGenerateExactly)
{
    // A lane resumed through arbitrary fill() boundaries must match
    // the one-shot generate() stream bit for bit — addr, think, AND
    // flags — or a chunked consumer would silently diverge from
    // every committed baseline.
    // Chunk 1 cuts between every record (including mid-burst), 7
    // misaligns with all internal state, 64Ki exceeds the lane.
    const WorkloadSpec spec = tinySpec();
    const Trace whole = WorkloadGenerator(spec).generate();
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{64 * 1024}}) {
        for (CoreId core = 0; core < spec.numCores; ++core) {
            LaneGenerator lane(spec, core);
            std::vector<TraceRecord> streamed;
            std::vector<TraceRecord> buffer;
            while (!lane.done()) {
                buffer.clear();
                const std::size_t got = lane.fill(buffer, chunk);
                EXPECT_EQ(got, buffer.size());
                streamed.insert(streamed.end(), buffer.begin(),
                                buffer.end());
            }
            EXPECT_EQ(lane.emitted(), spec.recordsPerCore);
            EXPECT_EQ(lane.fill(buffer, chunk), 0u) << "fill at eof";
            const auto &reference = whole.perCore[core];
            ASSERT_EQ(streamed.size(), reference.size())
                << "chunk=" << chunk << " core=" << core;
            for (std::size_t i = 0; i < reference.size(); ++i) {
                ASSERT_EQ(streamed[i].addr, reference[i].addr)
                    << "chunk=" << chunk << " core=" << core
                    << " record=" << i;
                ASSERT_EQ(streamed[i].think, reference[i].think);
                ASSERT_EQ(streamed[i].flags, reference[i].flags);
            }
        }
    }
}

TEST(StandardSuite, AllWorkloadsBuildAndAreKnown)
{
    for (const auto &info : standardSuite()) {
        EXPECT_TRUE(isKnownWorkload(info.name));
        WorkloadSpec spec = makeWorkload(info.name, 4096);
        EXPECT_EQ(spec.recordsPerCore, 4096u);
        Trace trace = WorkloadGenerator(spec).generate();
        EXPECT_EQ(trace.totalRecords(), 4u * 4096u);
    }
    EXPECT_FALSE(isKnownWorkload("no-such-workload"));
}

void
generateRecords(std::uint64_t records_per_core)
{
    WorkloadGenerator(makeWorkload("oltp-db2", records_per_core))
        .generate();
}

// records=1048576T: more records than a vector can ever hold, so
// reserve() throws std::length_error without allocating anything.
constexpr std::uint64_t kOverMaxSize = 1ULL << 60;

TEST(GeneratorDeath, RecordsBeyondMaxSizeFailCleanly)
{
    EXPECT_EXIT(generateRecords(kOverMaxSize),
                ::testing::ExitedWithCode(1),
                "records=1152921504606846976 per core");
}

TEST(GeneratorDeath, RecordsBeyondMaxSizeFailCleanlyOnAWorker)
{
    EXPECT_EXIT(std::thread(generateRecords, kOverMaxSize).join(),
                ::testing::ExitedWithCode(1),
                "records=1152921504606846976 per core");
}

TEST(GeneratorDeath, RecordsBeyondTheAddressSpaceLimitFailCleanly)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "a sanitizer's operator new reports out-of-memory "
                    "and aborts itself; it never throws std::bad_alloc";
#else
    // records=1T: 16 TB of records, refused with std::bad_alloc under
    // a 4 GB address-space limit, set in the death-test child only.
    const auto limited = []() {
        rlimit limit{};
        limit.rlim_cur = limit.rlim_max = 4'000'000'000ULL;
        setrlimit(RLIMIT_AS, &limit);
        generateRecords(1ULL << 40);
    };
    EXPECT_EXIT(limited(), ::testing::ExitedWithCode(1),
                "records=1099511627776 per core");
#endif
}

} // namespace
} // namespace stms
