/**
 * @file
 * Factories for the built-in experiments (one per paper figure,
 * table, or ablation). Registration is explicit — see
 * registerBuiltinExperiments() — so the definitions survive
 * static-library linking without self-registration tricks.
 */

#ifndef STMS_DRIVER_EXPERIMENTS_BUILTINS_HH
#define STMS_DRIVER_EXPERIMENTS_BUILTINS_HH

#include <memory>

#include "driver/experiment.hh"

namespace stms::driver
{

std::unique_ptr<Experiment> makeFig1Overhead();
std::unique_ptr<Experiment> makeIngestReplay();
std::unique_ptr<Experiment> makeSynthVsIngest();
std::unique_ptr<Experiment> makeFig1Storage();
std::unique_ptr<Experiment> makeFig4Potential();
std::unique_ptr<Experiment> makeFig5Storage();
std::unique_ptr<Experiment> makeFig6Lookup();
std::unique_ptr<Experiment> makeFig7Traffic();
std::unique_ptr<Experiment> makeFig8Sampling();
std::unique_ptr<Experiment> makeFig9Performance();
std::unique_ptr<Experiment> makeTable2Mlp();
std::unique_ptr<Experiment> makeMemTechSweep();
std::unique_ptr<Experiment> makeAblateBucket();
std::unique_ptr<Experiment> makeAblatePriority();
std::unique_ptr<Experiment> makeAblateSharing();

} // namespace stms::driver

#endif // STMS_DRIVER_EXPERIMENTS_BUILTINS_HH
