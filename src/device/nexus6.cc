/**
 * @file
 * Nexus 6 (Snapdragon 805) model — declarative spec.
 *
 * A faster-clocked Krait part in a much larger (6-inch) chassis. The
 * paper found *negligible* variation across its three units (2% both
 * axes) — the fleet pins them to near-identical corners — and Fig 13
 * shows the SD-805 to be *less efficient* than the SD-800: the extra
 * frequency was bought with voltage on the same 28 nm process.
 *
 * No per-bin kernel table was found for this model, so a single
 * representative fused table (built from a typical die) is shared by
 * all units, matching what the paper could observe — VfSource::
 * FusedTypical in spec terms.
 */

#include "device/catalog.hh"

#include "silicon/process_node.hh"

namespace pvar
{

DeviceSpec
nexus6Spec()
{
    DeviceSpec spec;
    spec.model = "Nexus 6";
    spec.socName = "SD-805";
    spec.silicon = node28nmHPm();

    // -- Package: big 6-inch chassis spreads heat much better. -----------
    spec.package.dieCapacitance = 2.2;
    spec.package.socCapacitance = 28.0;
    spec.package.batteryCapacitance = 55.0;
    spec.package.caseCapacitance = 90.0;
    spec.package.dieToSoc = 0.55;
    spec.package.socToCase = 0.40;
    spec.package.socToBattery = 0.10;
    spec.package.batteryToCase = 0.15;
    spec.package.caseToAmbient = 0.32;

    ClusterSpec cluster;
    cluster.name = "cpu";
    cluster.coreType.name = "Krait-450";
    cluster.coreType.sizeFactor = 1.05;
    cluster.coreType.cyclesPerIteration = 2.6e9; // ~1 s/iter at 2.65 GHz
    cluster.coreCount = 4;
    cluster.source = VfSource::FusedTypical;
    cluster.typicalDieId = "sd805-typ";
    // Frequency ladder of the Nexus 6 kernel (MHz, abbreviated).
    // 2.65 GHz on 28 nm needs generous guard band; the top OPP lands
    // around 1.16 V, which is exactly why this part ran hot.
    for (double f : {300, 729, 1032, 1190, 1574, 1958, 2265, 2649})
        cluster.binning.frequencyLadder.push_back(MegaHertz(f));
    cluster.binning.guardBand = 0.035;
    cluster.binning.vCeiling = Volts(1.20);
    cluster.binning.vFloor = Volts(0.70);
    spec.clusters = {cluster};

    spec.uncoreActive = Watts(0.28);
    spec.uncoreSuspended = Watts(0.012);

    spec.sensor.period = Time::msec(100);
    spec.sensor.quantum = 1.0;
    spec.sensor.noiseSigma = 0.2;

    spec.thermalGov.trips = {
        TripPoint{Celsius(77), Celsius(74), MegaHertz(2265)},
        TripPoint{Celsius(80), Celsius(77), MegaHertz(1958)},
        TripPoint{Celsius(83), Celsius(80), MegaHertz(1574)},
        TripPoint{Celsius(86), Celsius(83), MegaHertz(1190)},
    };
    spec.thermalGov.shutdowns = {
        CoreShutdownRule{Celsius(82), Celsius(77), 1},
    };
    spec.thermalGov.pollPeriod = Time::msec(250);

    spec.backgroundNoiseMean = 0.008; // residual kernel activity
    spec.backgroundNoisePeriod = Time::sec(15);
    spec.boardActive = Watts(0.12);
    spec.pmicEfficiency = 0.88;

    spec.battery.capacityWh = 12.4; // 3220 mAh
    spec.battery.nominal = Volts(3.8);

    return spec;
}

} // namespace pvar
