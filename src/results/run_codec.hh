/**
 * @file
 * RunOutput <-> flat scalars.
 *
 * Sweep resume works by replaying stored run records instead of
 * re-simulating, so every field an experiment's report() can read —
 * simulation counters, per-class traffic, per-core MLP, prefetcher
 * stats, the STMS-internal counters and the stream-length histogram —
 * must round-trip through the store's flat {name: number} scalar map.
 * encodeRunOutput() flattens a RunOutput into that map and
 * decodeRunOutput() rebuilds it exactly; the codec_test asserts the
 * round trip is lossless on real simulation output.
 *
 * Scalars use dotted names ("sim.traffic.meta-update.bytes"); vector
 * fields carry an explicit ".count" so decoding never guesses sizes.
 */

#ifndef STMS_RESULTS_RUN_CODEC_HH
#define STMS_RESULTS_RUN_CODEC_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/run.hh"

namespace stms::results
{

/** Flatten @p output into named scalars (insertion-ordered). */
std::vector<std::pair<std::string, double>>
encodeRunOutput(const RunOutput &output);

/**
 * Rebuild a RunOutput from @p scalars. Returns false (with @p error)
 * when the scalars were not produced by encodeRunOutput() — detected
 * via the embedded codec version — so a store written by a future
 * incompatible build is re-simulated instead of misread.
 */
bool decodeRunOutput(
    const std::vector<std::pair<std::string, double>> &scalars,
    RunOutput &output, std::string &error);

/**
 * Fold run @p id's @p output into the FNV-1a model digest @p digest:
 * the id, then every encodeRunOutput() scalar's name and value bits.
 * Folding a plan's runs in plan order, starting from kFnv1aOffset,
 * gives one number that changes iff any model output changes
 * (perf_suite's model_digest).
 */
std::uint64_t foldModelDigest(std::uint64_t digest,
                              const std::string &id,
                              const RunOutput &output);

} // namespace stms::results

#endif // STMS_RESULTS_RUN_CODEC_HH
