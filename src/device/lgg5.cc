/**
 * @file
 * LG G5 (Snapdragon 820) model — declarative spec.
 *
 * 14 nm FinFET, 2 performance + 2 efficiency Kryo cores. Two
 * behaviours the paper documents are specific to this phone:
 *
 *  - neither binning information nor voltage tables are exposed
 *    (per-die fused tables here, VfSource::FusedPerDie), and
 *  - the OS throttles the CPU on *input voltage*: powered from a
 *    Monsoon at the battery's nominal 3.85 V it benchmarks ~20%
 *    slower than on its own battery; 4.4 V restores parity (Fig 10).
 */

#include "device/catalog.hh"

#include "silicon/process_node.hh"

namespace pvar
{

namespace
{

VoltageBinningConfig
sd820Fusing(std::initializer_list<double> ladder_mhz)
{
    VoltageBinningConfig cfg;
    for (double f : ladder_mhz)
        cfg.frequencyLadder.push_back(MegaHertz(f));
    cfg.guardBand = 0.025;
    cfg.vCeiling = Volts(1.10);
    cfg.vFloor = Volts(0.55);
    return cfg;
}

} // namespace

DeviceSpec
lgG5Spec()
{
    DeviceSpec spec;
    spec.model = "LG G5";
    spec.socName = "SD-820";
    spec.silicon = node14nmFinFET();

    spec.package.dieCapacitance = 2.2;
    spec.package.socCapacitance = 24.0;
    spec.package.batteryCapacitance = 48.0;
    spec.package.caseCapacitance = 75.0;
    spec.package.dieToSoc = 0.24;
    spec.package.socToCase = 0.36;
    spec.package.socToBattery = 0.10;
    spec.package.batteryToCase = 0.15;
    spec.package.caseToAmbient = 0.27;

    ClusterSpec perf;
    perf.name = "perf";
    perf.coreType.name = "Kryo-perf";
    perf.coreType.sizeFactor = 2.40;
    perf.coreType.cyclesPerIteration = 1.9e9;
    perf.coreCount = 2;
    perf.source = VfSource::FusedPerDie;
    perf.binning =
        sd820Fusing({307, 556, 825, 1113, 1401, 1593, 1824, 2150});

    ClusterSpec eff;
    eff.name = "eff";
    eff.coreType.name = "Kryo-eff";
    eff.coreType.sizeFactor = 1.50;
    eff.coreType.cyclesPerIteration = 2.1e9;
    eff.coreCount = 2;
    eff.source = VfSource::FusedPerDie;
    eff.binning = sd820Fusing({307, 556, 825, 1113, 1363, 1593});

    spec.clusters = {perf, eff};

    spec.uncoreActive = Watts(0.26);
    spec.uncoreSuspended = Watts(0.012);

    spec.sensor.period = Time::msec(100);
    spec.sensor.quantum = 1.0;
    spec.sensor.noiseSigma = 0.2;

    spec.thermalGov.trips = {
        TripPoint{Celsius(66), Celsius(63), MegaHertz(1824)},
        TripPoint{Celsius(69), Celsius(66), MegaHertz(1593)},
        TripPoint{Celsius(74), Celsius(71), MegaHertz(1401)},
        TripPoint{Celsius(77), Celsius(74), MegaHertz(1113)},
    };
    spec.thermalGov.pollPeriod = Time::msec(250);

    spec.hasRbcpr = true;
    spec.rbcpr.baseRecoup = 0.012;
    spec.rbcpr.leakGain = 0.004;
    spec.rbcpr.speedGain = 0.18;
    spec.rbcpr.tempGain = 0.00012;
    spec.rbcpr.maxRecoup = 0.030;

    // The Fig 10 anomaly: cap engages below 4.0 V on the rail.
    spec.hasInputVoltageThrottle = true;
    spec.inputThrottle.engageBelow = Volts(3.88);
    spec.inputThrottle.releaseAbove = Volts(3.98);
    spec.inputThrottle.cap = MegaHertz(1593);
    spec.inputThrottle.pollPeriod = Time::msec(500);

    spec.backgroundNoiseMean = 0.008; // residual kernel activity
    spec.backgroundNoisePeriod = Time::sec(15);
    spec.boardActive = Watts(0.11);
    spec.pmicEfficiency = 0.89;

    spec.battery.capacityWh = 10.8; // 2800 mAh
    spec.battery.internalResistance = 0.07;
    spec.battery.nominal = Volts(3.85);
    spec.battery.vFull = Volts(4.40); // the G5 ships a 4.4 V cell

    return spec;
}

} // namespace pvar
