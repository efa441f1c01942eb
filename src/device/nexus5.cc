/**
 * @file
 * Nexus 5 (Snapdragon 800) model — declarative spec.
 *
 * The SD-800 is the one SoC whose binning the paper could fully read
 * out of the kernel: seven voltage bins sharing one frequency ladder
 * (paper Table I). Bin-0 carries the slowest transistors at the
 * highest voltages; bin-6 the fastest/leakiest at the lowest. The
 * table data lives in the spec as BinAnchors: the five published
 * frequencies with per-bin millivolts, expanded onto the 8-step DVFS
 * ladder by the shared interpolation helper.
 */

#include "device/catalog.hh"

#include "silicon/process_node.hh"
#include "sim/logging.hh"

namespace pvar
{

DeviceSpec
nexus5Spec()
{
    DeviceSpec spec;
    spec.model = "Nexus 5";
    spec.socName = "SD-800";
    spec.silicon = node28nmHPm();

    // -- Package: a compact 2013 5-inch phone. ---------------------------
    spec.package.dieCapacitance = 2.0;
    spec.package.socCapacitance = 22.0;
    spec.package.batteryCapacitance = 40.0;
    spec.package.caseCapacitance = 60.0;
    spec.package.dieToSoc = 0.32;
    spec.package.socToCase = 0.33;
    spec.package.socToBattery = 0.10;
    spec.package.batteryToCase = 0.15;
    spec.package.caseToAmbient = 0.23;

    // -- SoC: one quad-Krait cluster with the Table I bin tables. --------
    ClusterSpec cluster;
    cluster.name = "cpu";
    cluster.coreType.name = "Krait-400";
    cluster.coreType.sizeFactor = 1.0;
    cluster.coreType.cyclesPerIteration = 2.6e9;
    cluster.coreCount = 4;
    cluster.source = VfSource::BinAnchors;
    // The DVFS ladder the model exposes (superset of Table I's five).
    cluster.ladderMhz = {300, 729, 960, 1190, 1574, 1728, 1958, 2265};
    // Paper Table I, verbatim: the five published frequencies and the
    // fused millivolts per bin (rows) and frequency (columns).
    cluster.anchorMhz = {300, 729, 960, 1574, 2265};
    cluster.anchorMv = {
        {800, 835, 865, 965, 1100}, // bin-0
        {800, 820, 850, 945, 1075}, // bin-1
        {775, 805, 835, 925, 1050}, // bin-2
        {775, 790, 820, 910, 1025}, // bin-3
        {775, 780, 810, 895, 1000}, // bin-4
        {750, 770, 800, 880, 975},  // bin-5
        {750, 760, 790, 870, 950},  // bin-6
    };
    spec.clusters = {cluster};
    spec.defaultBin = 2; // crowd units beyond the fleet use the mid bin

    spec.uncoreActive = Watts(0.25);
    spec.uncoreSuspended = Watts(0.010);

    // -- Sensor: msm tsens, whole-degree resolution. ----------------------
    spec.sensor.period = Time::msec(100);
    spec.sensor.quantum = 1.0;
    spec.sensor.noiseSigma = 0.2;

    // -- msm_thermal-style mitigation; one core shut at 80C (Fig 1). ------
    spec.thermalGov.trips = {
        TripPoint{Celsius(70), Celsius(67), MegaHertz(1958)},
        TripPoint{Celsius(73), Celsius(70), MegaHertz(1728)},
        TripPoint{Celsius(76), Celsius(73), MegaHertz(1574)},
        TripPoint{Celsius(79), Celsius(76), MegaHertz(1190)},
    };
    spec.thermalGov.shutdowns = {
        CoreShutdownRule{Celsius(78), Celsius(72), 1},
    };
    spec.thermalGov.pollPeriod = Time::msec(250);

    spec.backgroundNoiseMean = 0.008; // residual kernel activity
    spec.backgroundNoisePeriod = Time::sec(15);
    spec.boardActive = Watts(0.10);
    spec.pmicEfficiency = 0.88;

    spec.battery.capacityWh = 8.7; // 2300 mAh
    spec.battery.nominal = Volts(3.8);

    return spec;
}

double
nexus5TableIMillivolts(int bin, double freq_mhz)
{
    static const DeviceSpec spec = nexus5Spec();
    const ClusterSpec &cluster = spec.clusters.front();
    if (bin < 0 || static_cast<std::size_t>(bin) >= cluster.anchorMv.size())
        fatal("nexus5TableIMillivolts: bin %d out of range [0,6]", bin);
    for (std::size_t i = 0; i < cluster.anchorMhz.size(); ++i) {
        if (cluster.anchorMhz[i] == freq_mhz)
            return cluster.anchorMv[bin][i];
    }
    fatal("nexus5TableIMillivolts: %g MHz is not a Table I frequency",
          freq_mhz);
}

VfTable
nexus5BinTable(int bin)
{
    static const DeviceSpec spec = nexus5Spec();
    if (bin < 0 || static_cast<std::size_t>(bin) >=
                       spec.clusters.front().anchorMv.size())
        fatal("nexus5BinTable: bin %d out of range [0,6]", bin);
    return resolveClusterTable(spec, spec.clusters.front(), bin, nullptr);
}

} // namespace pvar
