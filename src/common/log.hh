/**
 * @file
 * Error-reporting and logging helpers in the gem5 tradition.
 *
 * panic() is for simulator bugs (aborts); fatal() is for user error
 * (clean exit); warn()/inform()/debug() report status without
 * stopping, gated by a process-wide LogLevel (driver flag
 * `--log-level`, default warn).
 *
 * All output goes to stderr through one serialized sink. A sticky
 * status line (the live sweep progress meter, telemetry/progress.hh)
 * renders through logStickyLine(): the sink remembers whether a
 * sticky line is on screen and erases it before any log line prints,
 * so a progress redraw can never interleave with — or be overwritten
 * by — regular logging. The meter simply redraws on its next tick.
 */

#ifndef STMS_COMMON_LOG_HH
#define STMS_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace stms
{

/** Severity gate for non-fatal log output (ordered, lower = louder). */
enum class LogLevel : int
{
    Error = 0,  ///< Only errors (panic/fatal always print).
    Warn = 1,   ///< + suspicious but survivable conditions (default).
    Info = 2,   ///< + normal operating status (e.g. trace written).
    Debug = 3,  ///< + per-run chatter (the old --verbose prints).
};

/** Process-wide log threshold (atomic; default LogLevel::Warn). */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/** Parse "error" | "warn" | "info" | "debug" (case-sensitive).
 *  Returns false and leaves @p out untouched on anything else. */
bool parseLogLevel(const std::string &text, LogLevel &out);

/** Name of @p level ("warn", ...). */
const char *logLevelName(LogLevel level);

/** True when messages at @p level currently print. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(logLevel());
}

/**
 * Draw (or replace) the sticky status line: erases the previous
 * sticky line, writes @p line to stderr without a trailing newline,
 * and flushes. Any later log output erases the line first, so logs
 * and the progress meter never interleave. Call logStickyDone() to
 * erase it for good (end of sweep, or before handing stderr back).
 */
void logStickyLine(const std::string &line);
void logStickyDone();

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/**
 * Serialized raw stderr write (no level prefix, no gating): the
 * escape hatch for preformatted user-facing text such as the CLI's
 * usage and argument errors, routed through the log sink so it still
 * cooperates with the sticky progress line.
 */
void logRaw(const std::string &text);

/** Format a printf-style message into a std::string. */
std::string logFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace stms

/** Abort: something happened that indicates a simulator bug. */
#define stms_panic(...) \
    ::stms::panicImpl(__FILE__, __LINE__, ::stms::logFormat(__VA_ARGS__))

/** Exit(1): the simulation cannot continue due to user error. */
#define stms_fatal(...) \
    ::stms::fatalImpl(__FILE__, __LINE__, ::stms::logFormat(__VA_ARGS__))

/** Report suspicious but survivable conditions (LogLevel::Warn). */
#define stms_warn(...)                                                \
    do {                                                              \
        if (::stms::logEnabled(::stms::LogLevel::Warn))               \
            ::stms::warnImpl(::stms::logFormat(__VA_ARGS__));         \
    } while (0)

/** Report normal operating status (LogLevel::Info). */
#define stms_inform(...)                                              \
    do {                                                              \
        if (::stms::logEnabled(::stms::LogLevel::Info))               \
            ::stms::informImpl(::stms::logFormat(__VA_ARGS__));       \
    } while (0)

/** Report per-run chatter (LogLevel::Debug; the old --verbose). */
#define stms_debug(...)                                               \
    do {                                                              \
        if (::stms::logEnabled(::stms::LogLevel::Debug))              \
            ::stms::debugImpl(::stms::logFormat(__VA_ARGS__));        \
    } while (0)

/** Panic when a condition that must hold does not. */
#define stms_assert(cond, ...)                                            \
    do {                                                                  \
        if (!(cond))                                                      \
            ::stms::panicImpl(__FILE__, __LINE__,                         \
                              ::stms::logFormat(__VA_ARGS__));            \
    } while (0)

#endif // STMS_COMMON_LOG_HH
