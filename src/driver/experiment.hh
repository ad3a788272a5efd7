/**
 * @file
 * The experiment abstraction of the driver subsystem.
 *
 * An Experiment describes one of the paper's figures/tables/ablations
 * declaratively: plan() lists the (workload, records, configuration)
 * points to simulate, and report() folds the finished RunOutputs into
 * a Report. The ExperimentRunner owns everything in between — trace
 * caching, scheduling runs across worker threads, and collecting
 * outputs — so an experiment definition contains no simulation
 * machinery at all.
 *
 * plan() and report() must be pure functions of (options, runs):
 * the runner may execute runs in any order and on any thread, and
 * the determinism guarantee (--threads N bit-identical to serial)
 * holds because each run is an isolated System/EventQueue and the
 * report only sees the completed set keyed by id.
 */

#ifndef STMS_DRIVER_EXPERIMENT_HH
#define STMS_DRIVER_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "driver/report.hh"
#include "sim/run.hh"
#include "trace_io/format.hh"

namespace stms::driver
{

/** One simulation point of an experiment's plan. */
struct RunSpec
{
    /** Unique id within the plan; report() fetches outputs by id. */
    std::string id;
    /** standardSuite() workload name (unused for ingest runs). */
    std::string workload;
    /** Trace length in records per core (unused for ingest runs). */
    std::uint64_t records = 0;
    /**
     * When set, the run streams its records from these on-disk trace
     * files instead of the synthetic (workload, records) pair. The
     * runner opens a fresh source per run and bypasses the
     * TraceCache, so ingested traces never become cache-resident.
     */
    std::optional<trace_io::IngestSpec> ingest;
    /** System + prefetcher configuration for this point. */
    RunConfig config;
};

/** Completed outputs of a plan, keyed by RunSpec::id. */
class RunSet
{
  public:
    void add(const std::string &id, RunOutput output);

    bool has(const std::string &id) const;

    /** Output of run @p id; fatal when the plan had no such id. */
    const RunOutput &at(const std::string &id) const;

    std::size_t size() const { return outputs_.size(); }

  private:
    std::map<std::string, RunOutput> outputs_;
};

/** A named, registered experiment (one figure/table/ablation). */
class Experiment
{
  public:
    virtual ~Experiment() = default;

    /** Registry key, e.g. "fig7". */
    virtual const std::string &name() const = 0;

    /** One-line summary for --list. */
    virtual const std::string &description() const = 0;

    /** The simulation points this experiment needs. */
    virtual std::vector<RunSpec> plan(const Options &options) const = 0;

    /** Fold completed runs into tables + metrics. */
    virtual Report report(const Options &options,
                          const RunSet &runs) const = 0;
};

/** Convenience base holding the name/description strings. */
class ExperimentBase : public Experiment
{
  public:
    ExperimentBase(std::string name, std::string description)
        : name_(std::move(name)), description_(std::move(description))
    {}

    const std::string &name() const override { return name_; }
    const std::string &description() const override
    {
        return description_;
    }

  private:
    std::string name_;
    std::string description_;
};

/**
 * Trace length for a plan: the "records" option when present, else
 * the STMS_BENCH_RECORDS environment override, else @p fallback.
 */
std::uint64_t plannedRecords(const Options &options,
                             std::uint64_t fallback);

/**
 * Memory-backend spec for a plan: parsed from the "mem-backend"
 * option (set by the driver's --mem-backend flag). Returns nullopt
 * when the option is absent — every run keeps its own default — and
 * aborts on an unparseable spec (the CLI validates first, so this
 * only fires for malformed programmatic options).
 */
std::optional<MemBackendSpec> plannedMemBackend(const Options &options);

} // namespace stms::driver

#endif // STMS_DRIVER_EXPERIMENT_HH
