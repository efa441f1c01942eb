#include "device/registry.hh"

#include "device/catalog.hh"
#include "sim/logging.hh"

namespace pvar
{

void
DeviceRegistry::add(RegistryEntry entry)
{
    if (find(entry.spec.socName) || find(entry.spec.model))
        fatal("DeviceRegistry: duplicate entry '%s' / '%s'",
              entry.spec.socName.c_str(), entry.spec.model.c_str());
    _entries.push_back(std::move(entry));
}

const RegistryEntry *
DeviceRegistry::find(const std::string &name) const
{
    for (const RegistryEntry &e : _entries) {
        if (e.spec.socName == name || e.spec.model == name)
            return &e;
    }
    return nullptr;
}

const RegistryEntry &
DeviceRegistry::at(const std::string &name) const
{
    const RegistryEntry *e = find(name);
    if (!e)
        fatal("DeviceRegistry: unknown device '%s'", name.c_str());
    return *e;
}

UnitRef
DeviceRegistry::findUnit(const std::string &id) const
{
    std::size_t colon = id.find(':');
    if (colon != std::string::npos) {
        const RegistryEntry *e = find(id.substr(0, colon));
        if (!e)
            return UnitRef{};
        std::string unit = id.substr(colon + 1);
        for (std::size_t u = 0; u < e->units.size(); ++u) {
            if (e->units[u].id == unit)
                return UnitRef{e, u};
        }
        return UnitRef{};
    }
    for (const RegistryEntry &e : _entries) {
        for (std::size_t u = 0; u < e.units.size(); ++u) {
            if (e.units[u].id == id)
                return UnitRef{&e, u};
        }
    }
    return UnitRef{};
}

std::vector<std::string>
DeviceRegistry::studySocNames() const
{
    std::vector<std::string> names;
    for (const RegistryEntry &e : _entries) {
        if (e.inStudy)
            names.push_back(e.spec.socName);
    }
    return names;
}

// Calibrated silicon corners. Negative corner = slow, low-leakage die
// (ends up in a low bin number / needs high fused voltage); positive =
// fast, leaky. Residuals capture leakage spread beyond the speed
// correlation. Values chosen so the full protocol lands inside the
// Table II bands; see the paper cases in bench/pvar_paper.cc.

const DeviceRegistry &
DeviceRegistry::builtin()
{
    static const DeviceRegistry registry = [] {
        DeviceRegistry r;

        r.add(RegistryEntry{
            nexus5Spec(),
            {
                UnitCorner{"bin-0", -1.75, +0.15, 0.0, 0},
                UnitCorner{"bin-1", -0.70, -0.10, 0.0, 1},
                UnitCorner{"bin-2", +0.30, +0.10, 0.0, 2},
                UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3},
            },
            MegaHertz(1574),
            Volts(3.80),
            true,
        });

        r.add(RegistryEntry{
            nexus6Spec(),
            {
                UnitCorner{"unit-a", -0.18, +0.05, 0.0},
                UnitCorner{"unit-b", 0.00, 0.00, 0.0},
                UnitCorner{"unit-c", +0.18, -0.05, 0.0},
            },
            MegaHertz(1190),
            Volts(3.80),
            true,
        });

        r.add(RegistryEntry{
            nexus6pSpec(),
            {
                UnitCorner{"dev-363", +1.10, +0.05, 0.0},
                UnitCorner{"dev-520", 0.00, 0.00, 0.0},
                UnitCorner{"dev-793", -1.10, -0.20, 0.0},
            },
            MegaHertz(864),
            Volts(3.80),
            true,
        });

        r.add(RegistryEntry{
            lgG5Spec(),
            {
                UnitCorner{"unit-1", -1.00, -0.25, 0.0},
                UnitCorner{"unit-2", -0.40, +0.05, 0.0},
                UnitCorner{"unit-3", 0.00, 0.00, 0.0},
                UnitCorner{"unit-4", +0.50, +0.10, 0.0},
                UnitCorner{"unit-5", +1.00, +0.35, 0.0},
            },
            MegaHertz(1401),
            // LG G5: 4.4 V avoids the Fig 10 brownout throttle.
            Volts(4.40),
            true,
        });

        r.add(RegistryEntry{
            pixelSpec(),
            {
                UnitCorner{"dev-488", -0.90, -0.30, 0.0},
                UnitCorner{"dev-561", 0.00, 0.00, 0.0},
                UnitCorner{"dev-653", +0.90, +0.45, 0.0},
            },
            MegaHertz(1401),
            Volts(3.85),
            true,
        });

        // SD-835 extension (not paper data; the ext_sd835 case's corners).
        r.add(RegistryEntry{
            pixel2Spec(),
            {
                UnitCorner{"dev-p2a", -0.90, -0.30, 0.0},
                UnitCorner{"dev-p2b", 0.00, 0.00, 0.0},
                UnitCorner{"dev-p2c", +0.90, +0.45, 0.0},
            },
            MegaHertz(1401),
            Volts(3.85),
            false,
        });

        return r;
    }();
    return registry;
}

Fleet
buildFleet(const RegistryEntry &entry)
{
    Fleet fleet;
    fleet.reserve(entry.units.size());
    for (const UnitCorner &unit : entry.units)
        fleet.push_back(buildDevice(entry.spec, unit));
    return fleet;
}

} // namespace pvar
