#include "driver/experiments/builtins.hh"

#include "driver/registry.hh"

namespace stms::driver
{

void
registerBuiltinExperiments(ExperimentRegistry &registry)
{
    registry.add(makeFig1Overhead());
    registry.add(makeFig1Storage());
    registry.add(makeFig4Potential());
    registry.add(makeFig5Storage());
    registry.add(makeFig6Lookup());
    registry.add(makeFig7Traffic());
    registry.add(makeFig8Sampling());
    registry.add(makeFig9Performance());
    registry.add(makeTable2Mlp());
    registry.add(makeMemTechSweep());
    registry.add(makePerfSuite());
    registry.add(makeIngestReplay());
    registry.add(makeSynthVsIngest());
    registry.add(makeAblateBucket());
    registry.add(makeAblatePriority());
    registry.add(makeAblateSharing());
}

} // namespace stms::driver
