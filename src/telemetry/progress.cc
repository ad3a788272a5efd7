#include "telemetry/progress.hh"

#include <cstdio>
#include <unistd.h>

#include "common/log.hh"

namespace stms::telemetry
{

namespace
{

constexpr auto kRedrawInterval = std::chrono::milliseconds(100);

std::string
formatRate(double recordsPerSecond)
{
    char buf[32];
    if (recordsPerSecond >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.2fM rec/s",
                      recordsPerSecond / 1e6);
    } else if (recordsPerSecond >= 1e3) {
        std::snprintf(buf, sizeof(buf), "%.0fk rec/s",
                      recordsPerSecond / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%.0f rec/s",
                      recordsPerSecond);
    }
    return buf;
}

std::string
formatEta(double seconds)
{
    char buf[32];
    const long total = seconds < 0 ? 0 : static_cast<long>(seconds);
    if (total >= 3600) {
        std::snprintf(buf, sizeof(buf), "%ld:%02ld:%02ld",
                      total / 3600, (total / 60) % 60, total % 60);
    } else {
        std::snprintf(buf, sizeof(buf), "%ld:%02ld", total / 60,
                      total % 60);
    }
    return buf;
}

} // namespace

bool
progressEnabled(ProgressMode mode)
{
    switch (mode) {
      case ProgressMode::On:
        return true;
      case ProgressMode::Off:
        return false;
      case ProgressMode::Auto:
        break;
    }
    return ::isatty(::fileno(stderr)) != 0;
}

ProgressMeter::ProgressMeter(bool enabled, std::string label,
                             std::size_t totalRuns, unsigned workers)
    : enabled_(enabled), label_(std::move(label)), total_(totalRuns),
      workers_(workers == 0 ? 1 : workers),
      start_(std::chrono::steady_clock::now()), lastDraw_(start_)
{
}

ProgressMeter::~ProgressMeter()
{
    finish();
}

void
ProgressMeter::noteRun(std::uint64_t records, double acquireSeconds,
                       double simulateSeconds)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    records_ += records;
    acquireSeconds_ += acquireSeconds;
    simulateSeconds_ += simulateSeconds;
    maybeRedraw(done_ == total_);
}

void
ProgressMeter::finish()
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_)
        return;
    finished_ = true;
    if (drawn_)
        logStickyDone();
}

std::string
ProgressMeter::formatLocked() const
{
    // Caller holds mutex_.
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const double rate = elapsed > 0 ? records_ / elapsed : 0.0;
    const double per_run = done_ > 0 ? elapsed / done_ : 0.0;
    const double eta = per_run * (total_ > done_ ? total_ - done_ : 0);
    // Utilization: how busy each stage kept the worker pool.
    const double budget = elapsed * workers_;
    const auto util = [budget](double seconds) {
        return budget > 0 ? 100.0 * seconds / budget : 0.0;
    };
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "[%s] %zu/%zu runs | %s | ETA %s | "
                  "acq %.0f%% sim %.0f%%",
                  label_.c_str(), done_, total_, formatRate(rate).c_str(),
                  formatEta(eta).c_str(), util(acquireSeconds_),
                  util(simulateSeconds_));
    return buf;
}

std::string
ProgressMeter::renderLine() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return formatLocked();
}

void
ProgressMeter::maybeRedraw(bool force)
{
    // Caller holds mutex_.
    const auto now = std::chrono::steady_clock::now();
    if (!force && drawn_ && now - lastDraw_ < kRedrawInterval)
        return;
    lastDraw_ = now;
    drawn_ = true;
    logStickyLine(formatLocked());
}

} // namespace stms::telemetry
