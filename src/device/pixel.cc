/**
 * @file
 * Google Pixel (Snapdragon 821) model — declarative spec.
 *
 * The SD-821 is a speed-tuned SD-820 on the same 14 nm process. The
 * paper's §IV-B uses two Pixel units to show that "time spent at
 * temperature is not sufficient to capture the complexities of
 * thermal throttling": dev-488 spends *more* time hot than dev-653
 * yet delivers 7% more performance, because dev-653 recovers from
 * throttling more slowly. The Pixel model therefore uses narrower
 * hysteresis bands than the G5 — units whose capped steady state
 * lands between `clear` and `trip` stay latched at the cap.
 */

#include "device/catalog.hh"

#include "silicon/process_node.hh"

namespace pvar
{

namespace
{

VoltageBinningConfig
sd821Fusing(std::initializer_list<double> ladder_mhz)
{
    VoltageBinningConfig cfg;
    for (double f : ladder_mhz)
        cfg.frequencyLadder.push_back(MegaHertz(f));
    cfg.guardBand = 0.025;
    cfg.vCeiling = Volts(1.12);
    cfg.vFloor = Volts(0.55);
    return cfg;
}

} // namespace

DeviceSpec
pixelSpec()
{
    DeviceSpec spec;
    spec.model = "Google Pixel";
    spec.socName = "SD-821";
    spec.silicon = node14nmFinFET();

    spec.package.dieCapacitance = 2.2;
    spec.package.socCapacitance = 24.0;
    spec.package.batteryCapacitance = 46.0;
    spec.package.caseCapacitance = 72.0;
    spec.package.dieToSoc = 0.32;
    spec.package.socToCase = 0.36;
    spec.package.socToBattery = 0.10;
    spec.package.batteryToCase = 0.15;
    spec.package.caseToAmbient = 0.26;

    ClusterSpec perf;
    perf.name = "perf";
    perf.coreType.name = "Kryo-perf";
    perf.coreType.sizeFactor = 2.40;
    perf.coreType.cyclesPerIteration = 1.85e9;
    perf.coreCount = 2;
    perf.source = VfSource::FusedPerDie;
    perf.binning =
        sd821Fusing({307, 556, 825, 1113, 1401, 1593, 1824, 2150, 2342});

    ClusterSpec eff;
    eff.name = "eff";
    eff.coreType.name = "Kryo-eff";
    eff.coreType.sizeFactor = 1.50;
    eff.coreType.cyclesPerIteration = 2.05e9;
    eff.coreCount = 2;
    eff.source = VfSource::FusedPerDie;
    eff.binning =
        sd821Fusing({307, 556, 825, 1113, 1363, 1593, 1824, 2150});

    spec.clusters = {perf, eff};

    spec.uncoreActive = Watts(0.26);
    spec.uncoreSuspended = Watts(0.012);

    spec.sensor.period = Time::msec(100);
    spec.sensor.quantum = 1.0;
    spec.sensor.noiseSigma = 0.2;

    // Narrow hysteresis: 1.5 C bands (see file comment).
    spec.thermalGov.trips = {
        TripPoint{Celsius(70.0), Celsius(68.5), MegaHertz(2150)},
        TripPoint{Celsius(73.0), Celsius(71.5), MegaHertz(1824)},
        TripPoint{Celsius(76.0), Celsius(74.5), MegaHertz(1593)},
        TripPoint{Celsius(79.0), Celsius(77.5), MegaHertz(1401)},
    };
    spec.thermalGov.pollPeriod = Time::msec(250);

    spec.hasRbcpr = true;
    spec.rbcpr.baseRecoup = 0.012;
    spec.rbcpr.leakGain = 0.004;
    spec.rbcpr.speedGain = 0.18;
    spec.rbcpr.tempGain = 0.00012;
    spec.rbcpr.maxRecoup = 0.030;

    spec.backgroundNoiseMean = 0.008; // residual kernel activity
    spec.backgroundNoisePeriod = Time::sec(15);
    spec.boardActive = Watts(0.11);
    spec.pmicEfficiency = 0.89;

    spec.battery.capacityWh = 10.7; // 2770 mAh
    spec.battery.nominal = Volts(3.85);

    return spec;
}

} // namespace pvar
