/**
 * @file
 * The paper's single-core SMT machine. It is the 1-core case of the
 * chip layer: Simulator names ChipSimulator, which with
 * cfg.soc.numCores == 1 (the default) builds one core with its
 * private hierarchy, no shared LLC and nothing to migrate. The name
 * remains for code that means "one core" (tests, benches, examples).
 */

#ifndef DCRA_SMT_SIM_SIMULATOR_HH
#define DCRA_SMT_SIM_SIMULATOR_HH

#include "sim/sim_config.hh"
#include "soc/chip.hh"

namespace smt {

using Simulator = ChipSimulator;

} // namespace smt

#endif // DCRA_SMT_SIM_SIMULATOR_HH
