/** @file Unit tests for the Perfetto/Chrome trace-event exporter:
 *  JSON shape, phase set, event ordering, escaping, and the
 *  zero-cost-disabled contract of the instrumentation helpers. */

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "telemetry/trace_writer.hh"

namespace stms::telemetry
{
namespace
{

namespace fs = std::filesystem;

std::string
tempTracePath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(TraceSink, WritesWellFormedTraceEventJson)
{
    const std::string path =
        tempTracePath("stms_trace_writer_test.json");
    TraceSink sink(path);

    sink.threadName("main");
    const std::uint64_t start = sink.nowUs();
    sink.span("stage", "simulate", start, 25, "run-a");
    sink.counter("trace_cache.resident_kb", 3.0);
    sink.asyncBegin("run", 7, "run-a");
    sink.asyncEnd("run", 7, "run-a");
    sink.flushCurrentThread();

    std::string error;
    ASSERT_TRUE(sink.close(error)) << error;

    const std::string json = readFile(path);
    // Envelope chrome://tracing and Perfetto both accept.
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // One of each phase, with their phase-specific payloads.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"M\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"C\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"b\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"e\""), 1u);
    EXPECT_NE(json.find("\"dur\":25"), std::string::npos);
    EXPECT_NE(json.find("\"trace_cache.resident_kb\""), std::string::npos);
    // Thread-name metadata sorts ahead of every timed event.
    EXPECT_LT(json.find("\"ph\":\"M\""), json.find("\"ph\":\"X\""));
    fs::remove(path);
}

TEST(TraceSink, MergesThreadBuffersSortedByTimestamp)
{
    const std::string path =
        tempTracePath("stms_trace_writer_sort_test.json");
    TraceSink sink(path);

    // Worker emits *later* events but flushes *first*: close() must
    // still order the merged stream by timestamp.
    sink.span("stage", "early", 0, 1);
    std::thread worker([&sink] {
        sink.threadName("worker");
        sink.span("stage", "late", 1000, 1);
        sink.flushCurrentThread();
    });
    worker.join();
    sink.flushCurrentThread();

    std::string error;
    ASSERT_TRUE(sink.close(error)) << error;

    const std::string json = readFile(path);
    EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
    // Two distinct tids in the file (registration order, 1-based).
    EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
    fs::remove(path);
}

TEST(TraceSink, EscapesNamesAndIds)
{
    const std::string path =
        tempTracePath("stms_trace_writer_escape_test.json");
    TraceSink sink(path);
    sink.span("stage", "quote\"back\\slash\nnewline", 0, 1,
              "id\twith\ttabs");
    sink.flushCurrentThread();

    std::string error;
    ASSERT_TRUE(sink.close(error)) << error;

    const std::string json = readFile(path);
    EXPECT_NE(json.find("quote\\\"back\\\\slash\\nnewline"),
              std::string::npos);
    EXPECT_NE(json.find("id\\twith\\ttabs"), std::string::npos);
    // The raw control characters never reach the file.
    EXPECT_EQ(json.find('\t'), std::string::npos);
    fs::remove(path);
}

TEST(TraceSink, CloseIsIdempotentAndReportsIoFailure)
{
    const std::string good =
        tempTracePath("stms_trace_writer_idempotent_test.json");
    {
        TraceSink sink(good);
        sink.span("stage", "once", 0, 1);
        sink.flushCurrentThread();
        std::string error;
        EXPECT_TRUE(sink.close(error)) << error;
        EXPECT_TRUE(sink.close(error)) << error;  // Second close: no-op.
    }
    fs::remove(good);

    TraceSink broken(
        tempTracePath("stms_no_such_dir/sub/trace.json"));
    std::string error;
    EXPECT_FALSE(broken.close(error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceSink, ScopedSpanAndEmitCounterAreNoOpsWhenDisabled)
{
    ASSERT_EQ(traceSink(), nullptr)
        << "another test leaked an installed sink";
    {
        // Must not crash or allocate a sink; nothing to observe
        // beyond "runs cleanly with no sink installed".
        ScopedSpan span("stage", "simulate", "run-a");
        emitCounter("trace_cache.resident_kb", 1.0);
    }
    EXPECT_EQ(traceSink(), nullptr);
}

TEST(TraceSink, InstalledSinkCapturesScopedSpans)
{
    const std::string path =
        tempTracePath("stms_trace_writer_scoped_test.json");
    TraceSink sink(path);
    installTraceSink(&sink);
    {
        ScopedSpan span("stage", "acquire", "web-apache/p1.000");
        emitCounter("trace_cache.resident_kb", 64.0);
    }
    installTraceSink(nullptr);
    sink.flushCurrentThread();
    EXPECT_EQ(sink.eventCount(), 2u);

    std::string error;
    ASSERT_TRUE(sink.close(error)) << error;
    const std::string json = readFile(path);
    EXPECT_NE(json.find("\"acquire\""), std::string::npos);
    EXPECT_NE(json.find("web-apache/p1.000"), std::string::npos);
    fs::remove(path);
}

} // namespace
} // namespace stms::telemetry
