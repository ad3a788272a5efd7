/**
 * @file
 * Crash-safe whole-file writes for the JSON sinks.
 *
 * Reports (`--json`), trace exports (`--trace-out`) and the sweep
 * benchmark's results are written in one piece through
 * atomicWriteFile(), so a reader never sees a half-written file.
 */

#ifndef STMS_RESULTS_STORE_HH
#define STMS_RESULTS_STORE_HH

#include <string>

namespace stms::results
{

/**
 * Write @p payload to @p path atomically: the bytes land in a
 * same-directory temp file which is fsync-free renamed over @p path,
 * so an interrupted write never leaves a truncated file behind.
 */
bool atomicWriteFile(const std::string &path,
                     const std::string &payload);

} // namespace stms::results

#endif // STMS_RESULTS_STORE_HH
