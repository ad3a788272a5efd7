// Fixture: sanctioned patterns that must NOT fire any linter.
#include <mutex>
#include <string>

void
report(Report &out)
{
    // Allowed: timing suffixes inside the bench allowlist file.
    out.addMetric("serial.wall_s", 1.0);
    out.addMetric("fanout_speedup_ratio", 2.0);
    // Allowed: suffix-free model metrics anywhere.
    out.addMetric("model_digest_hi", 42.0);
}

void
guardedTelemetry()
{
    // Allowed: the idiomatic enabled-check guard.
    if (telemetry::TraceSink *sink = telemetry::traceSink())
        sink->counter("pipeline.depth", 3.0);
}

std::mutex g_mutex;

void
raiiOnly()
{
    std::lock_guard<std::mutex> guard(g_mutex);
    std::unique_lock<std::mutex> lock(g_mutex, std::defer_lock);
    lock.lock();    // Allowed: RAII guard receiver.
    lock.unlock();  // Allowed: RAII guard receiver.
}
