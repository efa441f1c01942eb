/**
 * @file
 * Name-keyed device registry.
 *
 * The registry is the data catalog behind the study: for each phone
 * model it holds the declarative DeviceSpec, the calibrated silicon
 * corners of the paper's experimental units, and the per-model study
 * constants (the FIXED-FREQUENCY pin and the Monsoon voltage). The
 * built-in registry carries the paper's five models plus the SD-835
 * extension; fleets loaded from JSON spec files produce the same
 * RegistryEntry records, so the protocol runs either interchangeably.
 */

#ifndef PVAR_DEVICE_REGISTRY_HH
#define PVAR_DEVICE_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "device/spec.hh"

namespace pvar
{

/** Owned list of devices. */
using Fleet = std::vector<std::unique_ptr<Device>>;

/** One model: its spec, its calibrated fleet, its study constants. */
struct RegistryEntry
{
    DeviceSpec spec;

    /** The calibrated units of the experimental fleet, study order. */
    std::vector<UnitCorner> units;

    /**
     * The fixed frequency used for the FIXED-FREQUENCY workload (a
     * mid-ladder OPP guaranteed not to reach any trip point).
     */
    MegaHertz fixedFrequency{1190.0};

    /**
     * The Monsoon output voltage the study powers this model at
     * (nominal battery voltage, except the LG G5's 4.4 V — Fig 10).
     */
    Volts monsoonVoltage{3.85};

    /** Part of the paper's Table II study (the SD-835 extension isn't). */
    bool inStudy = true;
};

/** A (model, unit) pair found by unit id. */
struct UnitRef
{
    const RegistryEntry *entry = nullptr;
    std::size_t unitIndex = 0;
};

/**
 * An ordered collection of RegistryEntry records keyed by SoC name
 * and model name.
 */
class DeviceRegistry
{
  public:
    DeviceRegistry() = default;

    /** Append an entry (keys: spec.socName and spec.model). */
    void add(RegistryEntry entry);

    /** Look up by SoC name ("SD-800") or model name ("Nexus 5"). */
    const RegistryEntry *find(const std::string &name) const;

    /** Like find(), but fatal when the name is unknown. */
    const RegistryEntry &at(const std::string &name) const;

    /**
     * Find a unit by id ("bin-0", "dev-363") across all entries, or by
     * the qualified form "SD-820:unit-3". Returns a null entry when
     * not found.
     */
    UnitRef findUnit(const std::string &id) const;

    const std::vector<RegistryEntry> &entries() const { return _entries; }

    /** SoC names of the entries flagged inStudy, registry order. */
    std::vector<std::string> studySocNames() const;

    /**
     * The built-in catalog: the paper's five models (calibrated so the
     * protocol lands inside the Table II bands; see
     * bench/pvar_paper.cc) plus the SD-835 extension.
     */
    static const DeviceRegistry &builtin();

  private:
    std::vector<RegistryEntry> _entries;
};

/** Build every calibrated unit of an entry's fleet. */
Fleet buildFleet(const RegistryEntry &entry);

} // namespace pvar

#endif // PVAR_DEVICE_REGISTRY_HH
