/**
 * @file
 * Live sweep progress line: runs done/total, records/sec, ETA, and
 * per-stage utilization, redrawn in place on stderr.
 *
 * Rendering goes through the log sink's sticky line
 * (common/log.hh), so regular log output and the meter can never
 * interleave: any log line erases the meter first and the meter
 * redraws on its next completion tick. Enabled only when stderr is
 * a TTY (Auto) or forced via `--progress`; when disabled every call
 * is a no-op behind one branch. This line is the seed of the
 * ROADMAP's fleet-mode streaming progress/ETA.
 */

#ifndef STMS_TELEMETRY_PROGRESS_HH
#define STMS_TELEMETRY_PROGRESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace stms::telemetry
{

/** How the driver decides whether to draw the progress line. */
enum class ProgressMode
{
    Auto,  ///< Draw iff stderr is a TTY (the default).
    On,    ///< Always draw (demos, pipes that render \r).
    Off,   ///< Never draw.
};

/** True when @p mode resolves to drawing on this process's stderr. */
bool progressEnabled(ProgressMode mode);

/**
 * One sweep's meter. Construct enabled=false for a zero-cost stub
 * (every method returns immediately); otherwise each completed run
 * updates the counters and redraws at most every ~100 ms.
 * Thread-safe: workers call noteRun() concurrently.
 */
class ProgressMeter
{
  public:
    ProgressMeter(bool enabled, std::string label,
                  std::size_t totalRuns, unsigned workers);
    ~ProgressMeter();

    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    /** Record one finished run and maybe redraw. */
    void noteRun(std::uint64_t records, double acquireSeconds,
                 double simulateSeconds);

    /** Final redraw + erase (also runs on destruction). */
    void finish();

    bool enabled() const { return enabled_; }

    /** The current line text (tests render without a TTY). */
    std::string renderLine() const;

  private:
    std::string formatLocked() const;
    void maybeRedraw(bool force);

    bool enabled_ = false;
    std::string label_;
    std::size_t total_ = 0;
    unsigned workers_ = 1;

    mutable std::mutex mutex_;
    std::size_t done_ = 0;
    std::uint64_t records_ = 0;
    double acquireSeconds_ = 0.0;
    double simulateSeconds_ = 0.0;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastDraw_;
    bool drawn_ = false;
    bool finished_ = false;
};

} // namespace stms::telemetry

#endif // STMS_TELEMETRY_PROGRESS_HH
