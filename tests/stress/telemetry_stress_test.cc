/**
 * @file
 * Race-stress for the telemetry TraceSink and the log sink
 * (tests/stress, label "tsan").
 *
 * The span buffers are thread-local and lock-free by design; the
 * cross-thread edges are buffer registration, flushCurrentThread()'s
 * move into the shared done-list, eventCount() observers, and the
 * final close() merge. These tests run all of them concurrently at
 * full speed — within the documented contract (close() only after
 * emitting threads joined) — so TSan can check the edges that the
 * determinism tests never exercise under load. The log half stresses
 * the sticky-line invariant: progress redraws, raw writes, and
 * leveled logging from many threads must serialize through one sink.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "telemetry/progress.hh"
#include "telemetry/trace_writer.hh"

namespace stms::telemetry
{
namespace
{

/** Temp path for trace output; tests only check close() succeeds. */
std::string
tempTracePath(const char *tag)
{
    return ::testing::TempDir() + "stress_trace_" + tag + ".json";
}

TEST(TelemetryStress, SpanBufferFlushRacesEmittersThenCloses)
{
    TraceSink sink(tempTracePath("flush"));
    installTraceSink(&sink);

    constexpr int kThreads = 6;
    constexpr int kIters = 2000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            sink.threadName("stress-" + std::to_string(t));
            for (int i = 0; i < kIters; ++i) {
                {
                    ScopedSpan span("stress", "work",
                                    i % 7 == 0 ? "tagged" : "");
                    emitCounter("stress.counter",
                                static_cast<double>(i));
                }
                if (i % 3 == 0)
                    sink.flushCurrentThread();
                if (i % 501 == 0)
                    sink.asyncBegin("stress", static_cast<std::uint64_t>(t),
                                    "async");
                if (i % 501 == 250)
                    sink.asyncEnd("stress", static_cast<std::uint64_t>(t),
                                  "async");
            }
            sink.flushCurrentThread();
        });
    }

    // Concurrent observer: eventCount() is documented as approximate
    // while emitters run, but it must be *safe* — this is the reader
    // that previously raced the lock-free buffer appends.
    std::atomic<bool> stop{false};
    std::thread observer([&] {
        std::size_t last = 0;
        while (!stop.load()) {
            const std::size_t count = sink.eventCount();
            EXPECT_GE(count + kThreads * kIters, last);
            last = count;
        }
    });

    for (auto &thread : workers)
        thread.join();
    stop.store(true);
    observer.join();
    installTraceSink(nullptr);

    // Spans + counters all arrived (thread-name events too); count
    // before close() drains the sink into the output file.
    EXPECT_GE(sink.eventCount(), static_cast<std::size_t>(
                                     kThreads * kIters * 2));
    std::string error;
    ASSERT_TRUE(sink.close(error)) << error;
    std::remove(sink.path().c_str());
}

TEST(TelemetryStress, ScopedSpanChurnAcrossManyShortLivedThreads)
{
    // Thread-local registration against one sink from a churn of
    // short-lived threads: each registers a fresh buffer under the
    // mutex, emits, flushes, and dies.
    TraceSink sink(tempTracePath("churn"));
    installTraceSink(&sink);
    for (int wave = 0; wave < 8; ++wave) {
        std::vector<std::thread> workers;
        workers.reserve(4);
        for (int t = 0; t < 4; ++t) {
            workers.emplace_back([&] {
                for (int i = 0; i < 50; ++i) {
                    ScopedSpan span("stress", "short");
                    emitCounter("stress.wave", wave);
                }
                sink.flushCurrentThread();
            });
        }
        for (auto &thread : workers)
            thread.join();
    }
    installTraceSink(nullptr);
    std::string error;
    ASSERT_TRUE(sink.close(error)) << error;
    std::remove(sink.path().c_str());
}

TEST(LogStress, StickyLineRacesLoggingAndRawWrites)
{
    // The sticky progress line and every other stderr byte must
    // serialize through the one sink mutex; hammer all entry points
    // concurrently. Keep stderr quiet by only using levels above the
    // default threshold for the bulk, plus a handful of warns.
    constexpr int kThreads = 4;
    std::vector<std::thread> workers;
    workers.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < 400; ++i) {
                switch ((i + t) % 4) {
                case 0:
                    logStickyLine("stress " + std::to_string(i));
                    break;
                case 1:
                    stms_debug("stress debug %d", i);  // Gated off.
                    break;
                case 2:
                    stms_inform("stress info %d", i);  // Gated off.
                    break;
                case 3:
                    logStickyDone();
                    break;
                }
            }
        });
    }
    // One thread flips the level so the gates race their writers.
    workers.emplace_back([] {
        for (int i = 0; i < 200; ++i) {
            setLogLevel(i % 2 == 0 ? LogLevel::Error
                                   : LogLevel::Warn);
        }
        setLogLevel(LogLevel::Warn);
    });
    for (auto &thread : workers)
        thread.join();
    logStickyDone();
}

TEST(LogStress, ProgressMeterNoteRunRacesLogSink)
{
    // The real pipeline shape: worker threads complete runs (meter
    // redraws through the sticky line) while others log. The meter is
    // enabled explicitly — no TTY needed — and erased at the end.
    ProgressMeter meter(true, "stress", 12 * 50, 4);
    std::vector<std::thread> workers;
    workers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&meter, t] {
            for (int i = 0; i < 3 * 50; ++i) {
                meter.noteRun(1000, 0.001, 0.01);
                if (i % 37 == 0)
                    stms_debug("run %d done (worker %d)", i, t);
                if (i % 97 == 0)
                    meter.renderLine();  // Concurrent reader.
            }
        });
    }
    for (auto &thread : workers)
        thread.join();
    meter.finish();
    const std::string line = meter.renderLine();
    EXPECT_NE(line.find("stress"), std::string::npos);
}

} // namespace
} // namespace stms::telemetry
