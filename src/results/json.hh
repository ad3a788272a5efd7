/**
 * @file
 * JSON writing helpers shared by every JSON sink.
 *
 * Reports, trace exports and the sweep benchmark's results all render
 * strings through jsonEscape() and numbers through jsonNumber().
 * Numbers print in their shortest round-trippable form, which is what
 * makes `--no-timing` reports byte-comparable across runs.
 */

#ifndef STMS_RESULTS_JSON_HH
#define STMS_RESULTS_JSON_HH

#include <string>

namespace stms::results
{

/** Minimal JSON string escaping (control chars, quotes, backslash). */
std::string jsonEscape(const std::string &text);

/** Render a double the way the JSON sinks do (shortest
 *  round-trippable form; integral values print without a point). */
std::string jsonNumber(double value);

} // namespace stms::results

#endif // STMS_RESULTS_JSON_HH
