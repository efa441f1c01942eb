#include "device/fleet.hh"

#include <utility>

#include "sim/rng.hh"

namespace pvar
{

Fleet
fleetForSoc(const std::string &soc_name)
{
    return buildFleet(DeviceRegistry::builtin().at(soc_name));
}

std::unique_ptr<Device>
makeUnitForSoc(const std::string &soc_name, const UnitCorner &corner)
{
    return buildDevice(DeviceRegistry::builtin().at(soc_name).spec,
                       corner);
}

UnitCorner
sampleUnitCorner(Rng &rng, std::string id, double corner_sigma)
{
    UnitCorner corner;
    corner.id = std::move(id);
    // Draw order is part of the population's definition: corner
    // first, then the leakage residual.
    corner.corner = rng.gaussian(0.0, corner_sigma);
    corner.leakResidual = rng.gaussian(0.0, 0.3);
    return corner;
}

} // namespace pvar
