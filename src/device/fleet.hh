/**
 * @file
 * The paper's experimental fleet — registry-backed accessors.
 *
 * §IV studied 18 units across five SoC generations:
 *
 *   SD-800 / Nexus 5 ....... 4 units (bins 0, 1, 2, 3; the bin-4 unit
 *                            failed during the paper's experiments)
 *   SD-805 / Nexus 6 ....... 3 units (near-identical)
 *   SD-810 / Nexus 6P ...... 3 units (dev-363, dev-520, dev-793)
 *   SD-820 / LG G5 ......... 5 units
 *   SD-821 / Google Pixel .. 3 units (dev-488, dev-561, dev-653)
 *
 * The fleet is pure *data*: every unit's calibrated corner and every
 * model's study constants live in the built-in DeviceRegistry
 * (registry.cc), chosen so the simulated protocol reproduces the
 * variation bands of paper Table II (see DESIGN.md §4 and the
 * calibration tests). The functions here are thin lookups for callers
 * that address the fleet by SoC name; the per-model study constants
 * and the study's SoC order are DeviceRegistry::builtin() fields.
 */

#ifndef PVAR_DEVICE_FLEET_HH
#define PVAR_DEVICE_FLEET_HH

#include <memory>
#include <string>
#include <vector>

#include "device/catalog.hh"
#include "device/device.hh"
#include "device/registry.hh"

namespace pvar
{

/** A fleet for one SoC by name ("SD-800" ... "SD-821"). */
Fleet fleetForSoc(const std::string &soc_name);

/**
 * Build one unit of the model carrying the given SoC at an arbitrary
 * silicon corner. A Nexus 5 unit takes its voltage bin from
 * corner.bin, or the mid bin-2 table when that is -1. Used by crowd
 * simulations, benches and tests that need units beyond the fleet.
 */
std::unique_ptr<Device> makeUnitForSoc(const std::string &soc_name,
                                       const UnitCorner &corner);

class Rng;

/**
 * Draw one synthetic unit's silicon corner: the latent process
 * deviate (sigma given by the caller) then the residual log-leakage
 * deviate (sigma 0.3), in that exact order. Every Monte-Carlo
 * population in the repo (crowd, sample-size study) samples units
 * through this helper serially before fanning experiments out, so a
 * population is a pure function of the seed regardless of how the
 * fan-out is scheduled or batched.
 */
UnitCorner sampleUnitCorner(Rng &rng, std::string id,
                            double corner_sigma);

} // namespace pvar

#endif // PVAR_DEVICE_FLEET_HH
