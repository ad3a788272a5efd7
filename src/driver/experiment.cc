#include "driver/experiment.hh"

#include <cstdlib>

#include "common/log.hh"

namespace stms::driver
{

void
RunSet::add(const std::string &id, RunOutput output)
{
    const bool inserted =
        outputs_.emplace(id, std::move(output)).second;
    stms_assert(inserted, "duplicate run id '%s'", id.c_str());
}

bool
RunSet::has(const std::string &id) const
{
    return outputs_.count(id) != 0;
}

const RunOutput &
RunSet::at(const std::string &id) const
{
    auto it = outputs_.find(id);
    if (it == outputs_.end())
        stms_fatal("experiment requested unknown run id '%s'",
                   id.c_str());
    return it->second;
}

std::uint64_t
plannedRecords(const Options &options, std::uint64_t fallback)
{
    if (options.has("records"))
        return options.getUint("records", fallback);
    // Parsed like records=: a negative or junk value is fatal, and 0
    // (or an empty value) keeps the fallback.
    if (const char *env = std::getenv("STMS_BENCH_RECORDS")) {
        const std::uint64_t value = parseSize(env);
        if (value > 0)
            return value;
    }
    return fallback;
}

std::optional<MemBackendSpec>
plannedMemBackend(const Options &options)
{
    const std::string text = options.get("mem-backend", "");
    if (text.empty())
        return std::nullopt;
    MemBackendSpec spec;
    std::string error;
    if (!parseMemBackendSpec(text, spec, error))
        stms_fatal("bad mem-backend option: %s", error.c_str());
    return spec;
}

} // namespace stms::driver
