/** @file Tests of the experiment registry: lookup, unknown names,
 *  and the built-in catalog. */

#include <gtest/gtest.h>

#include <set>

#include "driver/registry.hh"

namespace stms::driver
{
namespace
{

class DummyExperiment : public ExperimentBase
{
  public:
    explicit DummyExperiment(std::string name)
        : ExperimentBase(std::move(name), "dummy")
    {}

    std::vector<RunSpec>
    plan(const Options &) const override
    {
        return {};
    }

    Report
    report(const Options &, const RunSet &) const override
    {
        return Report(name());
    }
};

TEST(ExperimentRegistry, FindReturnsRegisteredExperiment)
{
    ExperimentRegistry registry;
    registry.add(std::make_unique<DummyExperiment>("alpha"));
    const Experiment *found = registry.find("alpha");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name(), "alpha");
}

TEST(ExperimentRegistry, FindUnknownReturnsNull)
{
    ExperimentRegistry registry;
    registry.add(std::make_unique<DummyExperiment>("alpha"));
    EXPECT_EQ(registry.find("beta"), nullptr);
    EXPECT_EQ(registry.find(""), nullptr);
}

TEST(ExperimentRegistry, DuplicateNameIsFatal)
{
    ExperimentRegistry registry;
    registry.add(std::make_unique<DummyExperiment>("alpha"));
    EXPECT_EXIT(
        registry.add(std::make_unique<DummyExperiment>("alpha")),
        testing::ExitedWithCode(1), "duplicate experiment");
}

TEST(ExperimentRegistry, AllIsSortedByName)
{
    ExperimentRegistry registry;
    registry.add(std::make_unique<DummyExperiment>("zeta"));
    registry.add(std::make_unique<DummyExperiment>("alpha"));
    registry.add(std::make_unique<DummyExperiment>("mid"));
    const auto all = registry.all();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0]->name(), "alpha");
    EXPECT_EQ(all[1]->name(), "mid");
    EXPECT_EQ(all[2]->name(), "zeta");
}

TEST(ExperimentRegistry, GlobalHasEveryBuiltin)
{
    const ExperimentRegistry &registry = ExperimentRegistry::global();
    const char *expected[] = {
        "fig1-overhead", "fig1-storage", "fig4", "fig5",
        "fig6", "fig7", "fig8", "fig9",
        "table2", "mem_tech_sweep",
        "ingest_replay", "synth_vs_ingest",
        "ablate-bucket", "ablate-priority", "ablate-sharing"};
    for (const char *name : expected) {
        const Experiment *experiment = registry.find(name);
        ASSERT_NE(experiment, nullptr) << name;
        EXPECT_FALSE(experiment->description().empty()) << name;
    }
    EXPECT_EQ(registry.size(), std::size(expected));
}

TEST(ExperimentRegistry, BuiltinPlansAreNonEmptyWithUniqueIds)
{
    Options options;
    options.set("records", "1024");
    for (const Experiment *experiment :
         ExperimentRegistry::global().all()) {
        const auto plan = experiment->plan(options);
        EXPECT_FALSE(plan.empty()) << experiment->name();
        std::set<std::string> ids;
        for (const RunSpec &spec : plan) {
            EXPECT_TRUE(ids.insert(spec.id).second)
                << experiment->name() << " duplicates id " << spec.id;
            EXPECT_EQ(spec.records, 1024u) << experiment->name();
            EXPECT_FALSE(spec.workload.empty()) << experiment->name();
        }
    }
}

TEST(RunSet, UnknownIdIsFatal)
{
    RunSet runs;
    runs.add("known", RunOutput{});
    EXPECT_TRUE(runs.has("known"));
    EXPECT_FALSE(runs.has("unknown"));
    EXPECT_EXIT(runs.at("unknown"), testing::ExitedWithCode(1),
                "unknown run id");
}

} // namespace
} // namespace stms::driver
