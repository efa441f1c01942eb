/**
 * @file
 * Nexus 6P (Snapdragon 810) model — declarative spec.
 *
 * The notorious 20 nm big.LITTLE part: 4x Cortex-A57 + 4x Cortex-A53,
 * heavy leakage at temperature, and aggressive mitigation (the ladder
 * of caps engages in the low 70s). Binning is closed-loop: every unit
 * reports "speed-bin 0" and runs RBCPR, so V-F tables are fused per
 * die rather than per published bin (VfSource::FusedPerDie) — which is
 * why the paper found no static table to extract.
 */

#include "device/catalog.hh"

#include "silicon/process_node.hh"

namespace pvar
{

namespace
{

VoltageBinningConfig
sd810Fusing(std::initializer_list<double> ladder_mhz)
{
    VoltageBinningConfig cfg;
    for (double f : ladder_mhz)
        cfg.frequencyLadder.push_back(MegaHertz(f));
    cfg.guardBand = 0.030;
    cfg.vCeiling = Volts(1.15);
    cfg.vFloor = Volts(0.60);
    return cfg;
}

} // namespace

DeviceSpec
nexus6pSpec()
{
    DeviceSpec spec;
    spec.model = "Nexus 6P";
    spec.socName = "SD-810";
    spec.silicon = node20nmSoC();

    // -- Package: 5.7-inch aluminium chassis; decent spreading, but the
    // die runs very hot regardless.
    spec.package.dieCapacitance = 2.4;
    spec.package.socCapacitance = 26.0;
    spec.package.batteryCapacitance = 52.0;
    spec.package.caseCapacitance = 85.0;
    spec.package.dieToSoc = 0.35;
    spec.package.socToCase = 0.38;
    spec.package.socToBattery = 0.10;
    spec.package.batteryToCase = 0.15;
    spec.package.caseToAmbient = 0.30;

    ClusterSpec big;
    big.name = "big";
    big.coreType.name = "Cortex-A57";
    big.coreType.sizeFactor = 1.60;
    big.coreType.cyclesPerIteration = 2.3e9;
    big.coreCount = 4;
    big.source = VfSource::FusedPerDie;
    big.binning = sd810Fusing({384, 633, 864, 1248, 1555, 1958});

    ClusterSpec little;
    little.name = "little";
    little.coreType.name = "Cortex-A53";
    little.coreType.sizeFactor = 0.50;
    little.coreType.cyclesPerIteration = 4.2e9;
    little.coreCount = 4;
    little.source = VfSource::FusedPerDie;
    little.binning = sd810Fusing({384, 691, 1036, 1555});

    spec.clusters = {big, little};

    spec.uncoreActive = Watts(0.30);
    spec.uncoreSuspended = Watts(0.014);

    spec.sensor.period = Time::msec(100);
    spec.sensor.quantum = 1.0;
    spec.sensor.noiseSigma = 0.2;

    // Mitigation engages early and deep — the ArsTechnica-documented
    // behaviour the paper cites for this SoC.
    spec.thermalGov.trips = {
        TripPoint{Celsius(70), Celsius(67), MegaHertz(1555)},
        TripPoint{Celsius(74), Celsius(71), MegaHertz(1248)},
        TripPoint{Celsius(78), Celsius(75), MegaHertz(864)},
        TripPoint{Celsius(82), Celsius(79), MegaHertz(633)},
    };
    spec.thermalGov.shutdowns = {
        CoreShutdownRule{Celsius(76), Celsius(71), 2},
    };
    spec.thermalGov.pollPeriod = Time::msec(250);

    spec.hasRbcpr = true;
    spec.rbcpr.baseRecoup = 0.015;
    spec.rbcpr.leakGain = 0.010;
    spec.rbcpr.speedGain = 0.20;
    spec.rbcpr.tempGain = 0.00015;
    spec.rbcpr.maxRecoup = 0.030;

    spec.backgroundNoiseMean = 0.008; // residual kernel activity
    spec.backgroundNoisePeriod = Time::sec(15);
    spec.boardActive = Watts(0.12);
    spec.pmicEfficiency = 0.88;

    spec.battery.capacityWh = 13.0; // 3450 mAh
    spec.battery.nominal = Volts(3.8);

    return spec;
}

} // namespace pvar
