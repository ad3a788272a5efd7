/**
 * @file
 * The unified experiment CLI.
 *
 * One binary runs every registered experiment:
 *
 *   driver --list
 *   driver --experiment fig7
 *   driver --experiment fig9 --threads 8 --json fig9.json
 *   driver --experiment all records=65536
 *
 * Flags select and steer the engine; bare key=value tokens (records,
 * sampling, ...) flow into the experiment's Options unchanged, the
 * same syntax the examples always used.
 */

#ifndef STMS_DRIVER_CLI_HH
#define STMS_DRIVER_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "telemetry/progress.hh"

namespace stms::driver
{

/** Parsed driver command line. */
struct DriverArgs
{
    std::vector<std::string> experiments;  ///< Names, or {"all"}.
    /** Worker threads; 0 = auto (hardware_concurrency). */
    std::uint32_t threads = 1;
    /** Attach wall-clock timing to reports (--no-timing disables,
     *  for byte-compare determinism gates). */
    bool timing = true;
    std::string jsonPath;  ///< Empty = no JSON; "-" = stdout.
    bool csv = false;      ///< Emit tables as CSV instead of aligned.
    bool list = false;
    bool help = false;
    /** Shorthand for --log-level debug (kept for compatibility; an
     *  explicit --log-level wins). */
    bool verbose = false;

    // Telemetry (docs/OBSERVABILITY.md). None of these can perturb
    // model output: traces/samples/progress are observations of the
    // execution, reported out of band.
    std::string traceOutPath;      ///< --trace-out FILE; empty = off.
    std::uint64_t sampleEvery = 0; ///< --sample-every N; 0 = off.
    /** --log-level parsed; kLogUnset = default (warn, or debug
     *  under --verbose). */
    static constexpr int kLogUnset = -1;
    int logLevel = kLogUnset;
    /** --progress / --no-progress (Auto = TTY detection). */
    telemetry::ProgressMode progress = telemetry::ProgressMode::Auto;

    Options options;       ///< key=value passthrough.
};

/**
 * Parse @p argv. On failure, fills @p error and returns false.
 */
bool parseDriverArgs(int argc, char **argv, DriverArgs &args,
                     std::string &error);

/** Full CLI entry point (the driver binary's main). */
int driverMain(int argc, char **argv);

} // namespace stms::driver

#endif // STMS_DRIVER_CLI_HH
