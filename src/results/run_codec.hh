/**
 * @file
 * RunOutput <-> flat scalars.
 *
 * encodeRunOutput() flattens every field an experiment's report()
 * can read — simulation counters, per-class traffic, per-core MLP,
 * prefetcher stats, the STMS-internal counters and the stream-length
 * histogram — into named scalars. The model digests are folded over
 * exactly those scalars: the ModelDigest tests and the sweep
 * benchmark's correctness check both go through foldModelDigest()
 * or encodeRunOutput().
 *
 * decodeRunOutput() rebuilds a RunOutput from the scalars. Nothing in
 * the simulator needs it; it exists as the proof that the digest
 * covers every RunOutput field. The codec test decodes real
 * simulation output and compares it field by field, so a new field
 * that misses the encoder (and would therefore escape the digest)
 * fails there.
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
 * via the embedded codec version.
 */
bool decodeRunOutput(
    const std::vector<std::pair<std::string, double>> &scalars,
    RunOutput &output, std::string &error);

/**
 * Fold run @p id's @p output into the FNV-1a model digest @p digest:
 * the id, then every encodeRunOutput() scalar's name and value bits.
 * Folding a plan's runs in plan order, starting from kFnv1aOffset,
 * gives one number that changes iff any model output changes (the
 * ModelDigest tests' pins).
 */
std::uint64_t foldModelDigest(std::uint64_t digest,
                              const std::string &id,
                              const RunOutput &output);

} // namespace stms::results

#endif // STMS_RESULTS_RUN_CODEC_HH
