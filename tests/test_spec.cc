/**
 * @file
 * Spec-layer tests: the declarative DeviceSpec + generic buildDevice()
 * path must reproduce the legacy hand-built configs bit-for-bit, and
 * specs must survive a JSON round-trip exactly.
 *
 * The `legacy` namespaces below are verbatim copies of the six model
 * builders as they existed before the spec refactor (git history:
 * "PR 1"). They are the ground truth the data-driven path is checked
 * against, field for field, with exact double equality.
 */

#include <gtest/gtest.h>

#include "device/catalog.hh"
#include "device/fleet.hh"
#include "device/registry.hh"
#include "device/spec.hh"
#include "report/spec_json.hh"
#include "silicon/binning.hh"
#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"

using namespace pvar;

// ---------------------------------------------------------------------
// Legacy builders (pre-refactor), copied verbatim.
// ---------------------------------------------------------------------

namespace legacy::n5
{

using namespace pvar;

const double tableIFreqs[] = {300, 729, 960, 1574, 2265};

const double tableIMv[7][5] = {
    {800, 835, 865, 965, 1100}, // bin-0
    {800, 820, 850, 945, 1075}, // bin-1
    {775, 805, 835, 925, 1050}, // bin-2
    {775, 790, 820, 910, 1025}, // bin-3
    {775, 780, 810, 895, 1000}, // bin-4
    {750, 770, 800, 880, 975},  // bin-5
    {750, 760, 790, 870, 950},  // bin-6
};

const double ladderMhz[] = {300, 729, 960, 1190, 1574, 1728, 1958, 2265};

double
interpolateMv(int bin, double freq)
{
    const double *mv = tableIMv[bin];
    if (freq <= tableIFreqs[0])
        return mv[0];
    for (int i = 1; i < 5; ++i) {
        if (freq <= tableIFreqs[i]) {
            double f = (freq - tableIFreqs[i - 1]) /
                       (tableIFreqs[i] - tableIFreqs[i - 1]);
            return mv[i - 1] + f * (mv[i] - mv[i - 1]);
        }
    }
    return mv[4];
}

VfTable
nexus5BinTable(int bin)
{
    std::vector<OperatingPoint> pts;
    for (double f : ladderMhz) {
        pts.push_back(OperatingPoint{
            MegaHertz(f),
            Volts::fromMillivolts(interpolateMv(bin, f))});
    }
    return VfTable(std::move(pts));
}

DeviceConfig
nexus5Config(int bin)
{
    DeviceConfig cfg;
    cfg.model = "Nexus 5";
    cfg.socName = "SD-800";

    cfg.package.dieCapacitance = 2.0;
    cfg.package.socCapacitance = 22.0;
    cfg.package.batteryCapacitance = 40.0;
    cfg.package.caseCapacitance = 60.0;
    cfg.package.dieToSoc = 0.32;
    cfg.package.socToCase = 0.33;
    cfg.package.socToBattery = 0.10;
    cfg.package.batteryToCase = 0.15;
    cfg.package.caseToAmbient = 0.23;

    CoreType krait;
    krait.name = "Krait-400";
    krait.sizeFactor = 1.0;
    krait.cyclesPerIteration = 2.6e9;

    ClusterParams cluster;
    cluster.name = "cpu";
    cluster.coreType = krait;
    cluster.coreCount = 4;
    cluster.table = nexus5BinTable(bin);

    cfg.soc.name = "SD-800";
    cfg.soc.clusters = {cluster};
    cfg.soc.uncoreActive = Watts(0.25);
    cfg.soc.uncoreSuspended = Watts(0.010);

    cfg.sensor.period = Time::msec(100);
    cfg.sensor.quantum = 1.0;
    cfg.sensor.noiseSigma = 0.2;

    cfg.thermalGov.trips = {
        TripPoint{Celsius(70), Celsius(67), MegaHertz(1958)},
        TripPoint{Celsius(73), Celsius(70), MegaHertz(1728)},
        TripPoint{Celsius(76), Celsius(73), MegaHertz(1574)},
        TripPoint{Celsius(79), Celsius(76), MegaHertz(1190)},
    };
    cfg.thermalGov.shutdowns = {
        CoreShutdownRule{Celsius(78), Celsius(72), 1},
    };
    cfg.thermalGov.pollPeriod = Time::msec(250);

    cfg.backgroundNoiseMean = 0.008;
    cfg.backgroundNoisePeriod = Time::sec(15);
    cfg.boardActive = Watts(0.10);
    cfg.pmicEfficiency = 0.88;

    cfg.battery.capacityWh = 8.7; // 2300 mAh
    cfg.battery.nominal = Volts(3.8);

    return cfg;
}

std::unique_ptr<Device>
makeNexus5(int bin, const UnitCorner &corner)
{
    DeviceConfig cfg = nexus5Config(bin);
    VariationModel model(node28nmHPm());
    Die die = model.dieAtCorner(corner.corner, corner.leakResidual,
                                corner.vthOffset, corner.id);
    return std::make_unique<Device>(std::move(cfg), std::move(die));
}

} // namespace legacy::n5

namespace legacy::n6
{

using namespace pvar;

const double ladderMhz[] = {300, 729, 1032, 1190, 1574, 1958, 2265, 2649};

VfTable
nexus6Table()
{
    VariationModel model(node28nmHPm());
    Die typical = model.dieAtCorner(0.0, 0.0, 0.0, "sd805-typ");

    VoltageBinningConfig bin_cfg;
    for (double f : ladderMhz)
        bin_cfg.frequencyLadder.push_back(MegaHertz(f));
    bin_cfg.guardBand = 0.035;
    bin_cfg.vCeiling = Volts(1.20);
    bin_cfg.vFloor = Volts(0.70);
    return fuseTableForDie(typical, bin_cfg);
}

DeviceConfig
nexus6Config()
{
    DeviceConfig cfg;
    cfg.model = "Nexus 6";
    cfg.socName = "SD-805";

    cfg.package.dieCapacitance = 2.2;
    cfg.package.socCapacitance = 28.0;
    cfg.package.batteryCapacitance = 55.0;
    cfg.package.caseCapacitance = 90.0;
    cfg.package.dieToSoc = 0.55;
    cfg.package.socToCase = 0.40;
    cfg.package.socToBattery = 0.10;
    cfg.package.batteryToCase = 0.15;
    cfg.package.caseToAmbient = 0.32;

    CoreType krait;
    krait.name = "Krait-450";
    krait.sizeFactor = 1.05;
    krait.cyclesPerIteration = 2.6e9;

    ClusterParams cluster;
    cluster.name = "cpu";
    cluster.coreType = krait;
    cluster.coreCount = 4;
    cluster.table = nexus6Table();

    cfg.soc.name = "SD-805";
    cfg.soc.clusters = {cluster};
    cfg.soc.uncoreActive = Watts(0.28);
    cfg.soc.uncoreSuspended = Watts(0.012);

    cfg.sensor.period = Time::msec(100);
    cfg.sensor.quantum = 1.0;
    cfg.sensor.noiseSigma = 0.2;

    cfg.thermalGov.trips = {
        TripPoint{Celsius(77), Celsius(74), MegaHertz(2265)},
        TripPoint{Celsius(80), Celsius(77), MegaHertz(1958)},
        TripPoint{Celsius(83), Celsius(80), MegaHertz(1574)},
        TripPoint{Celsius(86), Celsius(83), MegaHertz(1190)},
    };
    cfg.thermalGov.shutdowns = {
        CoreShutdownRule{Celsius(82), Celsius(77), 1},
    };
    cfg.thermalGov.pollPeriod = Time::msec(250);

    cfg.backgroundNoiseMean = 0.008;
    cfg.backgroundNoisePeriod = Time::sec(15);
    cfg.boardActive = Watts(0.12);
    cfg.pmicEfficiency = 0.88;

    cfg.battery.capacityWh = 12.4; // 3220 mAh
    cfg.battery.nominal = Volts(3.8);

    return cfg;
}

std::unique_ptr<Device>
makeNexus6(const UnitCorner &corner)
{
    DeviceConfig cfg = nexus6Config();
    VariationModel model(node28nmHPm());
    Die die = model.dieAtCorner(corner.corner, corner.leakResidual,
                                corner.vthOffset, corner.id);
    return std::make_unique<Device>(std::move(cfg), std::move(die));
}

} // namespace legacy::n6

namespace legacy::n6p
{

using namespace pvar;

const double bigLadderMhz[] = {384, 633, 864, 1248, 1555, 1958};
const double littleLadderMhz[] = {384, 691, 1036, 1555};

VoltageBinningConfig
ladderConfig(const double *mhz, std::size_t n)
{
    VoltageBinningConfig cfg;
    for (std::size_t i = 0; i < n; ++i)
        cfg.frequencyLadder.push_back(MegaHertz(mhz[i]));
    cfg.guardBand = 0.030;
    cfg.vCeiling = Volts(1.15);
    cfg.vFloor = Volts(0.60);
    return cfg;
}

DeviceConfig
nexus6pConfig()
{
    DeviceConfig cfg;
    cfg.model = "Nexus 6P";
    cfg.socName = "SD-810";

    cfg.package.dieCapacitance = 2.4;
    cfg.package.socCapacitance = 26.0;
    cfg.package.batteryCapacitance = 52.0;
    cfg.package.caseCapacitance = 85.0;
    cfg.package.dieToSoc = 0.35;
    cfg.package.socToCase = 0.38;
    cfg.package.socToBattery = 0.10;
    cfg.package.batteryToCase = 0.15;
    cfg.package.caseToAmbient = 0.30;

    CoreType a57;
    a57.name = "Cortex-A57";
    a57.sizeFactor = 1.60;
    a57.cyclesPerIteration = 2.3e9;

    CoreType a53;
    a53.name = "Cortex-A53";
    a53.sizeFactor = 0.50;
    a53.cyclesPerIteration = 4.2e9;

    ClusterParams big;
    big.name = "big";
    big.coreType = a57;
    big.coreCount = 4;

    ClusterParams little;
    little.name = "little";
    little.coreType = a53;
    little.coreCount = 4;

    cfg.soc.name = "SD-810";
    cfg.soc.clusters = {big, little};
    cfg.soc.uncoreActive = Watts(0.30);
    cfg.soc.uncoreSuspended = Watts(0.014);

    cfg.sensor.period = Time::msec(100);
    cfg.sensor.quantum = 1.0;
    cfg.sensor.noiseSigma = 0.2;

    cfg.thermalGov.trips = {
        TripPoint{Celsius(70), Celsius(67), MegaHertz(1555)},
        TripPoint{Celsius(74), Celsius(71), MegaHertz(1248)},
        TripPoint{Celsius(78), Celsius(75), MegaHertz(864)},
        TripPoint{Celsius(82), Celsius(79), MegaHertz(633)},
    };
    cfg.thermalGov.shutdowns = {
        CoreShutdownRule{Celsius(76), Celsius(71), 2},
    };
    cfg.thermalGov.pollPeriod = Time::msec(250);

    cfg.hasRbcpr = true;
    cfg.rbcpr.baseRecoup = 0.015;
    cfg.rbcpr.leakGain = 0.010;
    cfg.rbcpr.speedGain = 0.20;
    cfg.rbcpr.tempGain = 0.00015;
    cfg.rbcpr.maxRecoup = 0.030;

    cfg.backgroundNoiseMean = 0.008;
    cfg.backgroundNoisePeriod = Time::sec(15);
    cfg.boardActive = Watts(0.12);
    cfg.pmicEfficiency = 0.88;

    cfg.battery.capacityWh = 13.0; // 3450 mAh
    cfg.battery.nominal = Volts(3.8);

    return cfg;
}

std::unique_ptr<Device>
makeNexus6p(const UnitCorner &corner)
{
    DeviceConfig cfg = nexus6pConfig();
    VariationModel model(node20nmSoC());
    Die die = model.dieAtCorner(corner.corner, corner.leakResidual,
                                corner.vthOffset, corner.id);

    cfg.soc.clusters[0].table = fuseTableForDie(
        die, ladderConfig(bigLadderMhz, std::size(bigLadderMhz)));
    cfg.soc.clusters[1].table = fuseTableForDie(
        die, ladderConfig(littleLadderMhz, std::size(littleLadderMhz)));

    return std::make_unique<Device>(std::move(cfg), std::move(die));
}

} // namespace legacy::n6p

namespace legacy::g5
{

using namespace pvar;

const double perfLadderMhz[] = {307, 556, 825, 1113, 1401, 1593, 1824,
                                2150};
const double effLadderMhz[] = {307, 556, 825, 1113, 1363, 1593};

VoltageBinningConfig
ladderConfig(const double *mhz, std::size_t n)
{
    VoltageBinningConfig cfg;
    for (std::size_t i = 0; i < n; ++i)
        cfg.frequencyLadder.push_back(MegaHertz(mhz[i]));
    cfg.guardBand = 0.025;
    cfg.vCeiling = Volts(1.10);
    cfg.vFloor = Volts(0.55);
    return cfg;
}

DeviceConfig
lgG5Config()
{
    DeviceConfig cfg;
    cfg.model = "LG G5";
    cfg.socName = "SD-820";

    cfg.package.dieCapacitance = 2.2;
    cfg.package.socCapacitance = 24.0;
    cfg.package.batteryCapacitance = 48.0;
    cfg.package.caseCapacitance = 75.0;
    cfg.package.dieToSoc = 0.24;
    cfg.package.socToCase = 0.36;
    cfg.package.socToBattery = 0.10;
    cfg.package.batteryToCase = 0.15;
    cfg.package.caseToAmbient = 0.27;

    CoreType kryoPerf;
    kryoPerf.name = "Kryo-perf";
    kryoPerf.sizeFactor = 2.40;
    kryoPerf.cyclesPerIteration = 1.9e9;

    CoreType kryoEff;
    kryoEff.name = "Kryo-eff";
    kryoEff.sizeFactor = 1.50;
    kryoEff.cyclesPerIteration = 2.1e9;

    ClusterParams perf;
    perf.name = "perf";
    perf.coreType = kryoPerf;
    perf.coreCount = 2;

    ClusterParams eff;
    eff.name = "eff";
    eff.coreType = kryoEff;
    eff.coreCount = 2;

    cfg.soc.name = "SD-820";
    cfg.soc.clusters = {perf, eff};
    cfg.soc.uncoreActive = Watts(0.26);
    cfg.soc.uncoreSuspended = Watts(0.012);

    cfg.sensor.period = Time::msec(100);
    cfg.sensor.quantum = 1.0;
    cfg.sensor.noiseSigma = 0.2;

    cfg.thermalGov.trips = {
        TripPoint{Celsius(66), Celsius(63), MegaHertz(1824)},
        TripPoint{Celsius(69), Celsius(66), MegaHertz(1593)},
        TripPoint{Celsius(74), Celsius(71), MegaHertz(1401)},
        TripPoint{Celsius(77), Celsius(74), MegaHertz(1113)},
    };
    cfg.thermalGov.pollPeriod = Time::msec(250);

    cfg.hasRbcpr = true;
    cfg.rbcpr.baseRecoup = 0.012;
    cfg.rbcpr.leakGain = 0.004;
    cfg.rbcpr.speedGain = 0.18;
    cfg.rbcpr.tempGain = 0.00012;
    cfg.rbcpr.maxRecoup = 0.030;

    cfg.hasInputVoltageThrottle = true;
    cfg.inputThrottle.engageBelow = Volts(3.88);
    cfg.inputThrottle.releaseAbove = Volts(3.98);
    cfg.inputThrottle.cap = MegaHertz(1593);
    cfg.inputThrottle.pollPeriod = Time::msec(500);

    cfg.backgroundNoiseMean = 0.008;
    cfg.backgroundNoisePeriod = Time::sec(15);
    cfg.boardActive = Watts(0.11);
    cfg.pmicEfficiency = 0.89;

    cfg.battery.capacityWh = 10.8; // 2800 mAh
    cfg.battery.internalResistance = 0.07;
    cfg.battery.nominal = Volts(3.85);
    cfg.battery.vFull = Volts(4.40);

    return cfg;
}

std::unique_ptr<Device>
makeLgG5(const UnitCorner &corner)
{
    DeviceConfig cfg = lgG5Config();
    VariationModel model(node14nmFinFET());
    Die die = model.dieAtCorner(corner.corner, corner.leakResidual,
                                corner.vthOffset, corner.id);

    cfg.soc.clusters[0].table = fuseTableForDie(
        die, ladderConfig(perfLadderMhz, std::size(perfLadderMhz)));
    cfg.soc.clusters[1].table = fuseTableForDie(
        die, ladderConfig(effLadderMhz, std::size(effLadderMhz)));

    return std::make_unique<Device>(std::move(cfg), std::move(die));
}

} // namespace legacy::g5

namespace legacy::px
{

using namespace pvar;

const double perfLadderMhz[] = {307, 556, 825, 1113, 1401, 1593, 1824,
                                2150, 2342};
const double effLadderMhz[] = {307, 556, 825, 1113, 1363, 1593, 1824,
                               2150};

VoltageBinningConfig
ladderConfig(const double *mhz, std::size_t n)
{
    VoltageBinningConfig cfg;
    for (std::size_t i = 0; i < n; ++i)
        cfg.frequencyLadder.push_back(MegaHertz(mhz[i]));
    cfg.guardBand = 0.025;
    cfg.vCeiling = Volts(1.12);
    cfg.vFloor = Volts(0.55);
    return cfg;
}

DeviceConfig
pixelConfig()
{
    DeviceConfig cfg;
    cfg.model = "Google Pixel";
    cfg.socName = "SD-821";

    cfg.package.dieCapacitance = 2.2;
    cfg.package.socCapacitance = 24.0;
    cfg.package.batteryCapacitance = 46.0;
    cfg.package.caseCapacitance = 72.0;
    cfg.package.dieToSoc = 0.32;
    cfg.package.socToCase = 0.36;
    cfg.package.socToBattery = 0.10;
    cfg.package.batteryToCase = 0.15;
    cfg.package.caseToAmbient = 0.26;

    CoreType kryoPerf;
    kryoPerf.name = "Kryo-perf";
    kryoPerf.sizeFactor = 2.40;
    kryoPerf.cyclesPerIteration = 1.85e9;

    CoreType kryoEff;
    kryoEff.name = "Kryo-eff";
    kryoEff.sizeFactor = 1.50;
    kryoEff.cyclesPerIteration = 2.05e9;

    ClusterParams perf;
    perf.name = "perf";
    perf.coreType = kryoPerf;
    perf.coreCount = 2;

    ClusterParams eff;
    eff.name = "eff";
    eff.coreType = kryoEff;
    eff.coreCount = 2;

    cfg.soc.name = "SD-821";
    cfg.soc.clusters = {perf, eff};
    cfg.soc.uncoreActive = Watts(0.26);
    cfg.soc.uncoreSuspended = Watts(0.012);

    cfg.sensor.period = Time::msec(100);
    cfg.sensor.quantum = 1.0;
    cfg.sensor.noiseSigma = 0.2;

    cfg.thermalGov.trips = {
        TripPoint{Celsius(70.0), Celsius(68.5), MegaHertz(2150)},
        TripPoint{Celsius(73.0), Celsius(71.5), MegaHertz(1824)},
        TripPoint{Celsius(76.0), Celsius(74.5), MegaHertz(1593)},
        TripPoint{Celsius(79.0), Celsius(77.5), MegaHertz(1401)},
    };
    cfg.thermalGov.pollPeriod = Time::msec(250);

    cfg.hasRbcpr = true;
    cfg.rbcpr.baseRecoup = 0.012;
    cfg.rbcpr.leakGain = 0.004;
    cfg.rbcpr.speedGain = 0.18;
    cfg.rbcpr.tempGain = 0.00012;
    cfg.rbcpr.maxRecoup = 0.030;

    cfg.backgroundNoiseMean = 0.008;
    cfg.backgroundNoisePeriod = Time::sec(15);
    cfg.boardActive = Watts(0.11);
    cfg.pmicEfficiency = 0.89;

    cfg.battery.capacityWh = 10.7; // 2770 mAh
    cfg.battery.nominal = Volts(3.85);

    return cfg;
}

std::unique_ptr<Device>
makePixel(const UnitCorner &corner)
{
    DeviceConfig cfg = pixelConfig();
    VariationModel model(node14nmFinFET());
    Die die = model.dieAtCorner(corner.corner, corner.leakResidual,
                                corner.vthOffset, corner.id);

    cfg.soc.clusters[0].table = fuseTableForDie(
        die, ladderConfig(perfLadderMhz, std::size(perfLadderMhz)));
    cfg.soc.clusters[1].table = fuseTableForDie(
        die, ladderConfig(effLadderMhz, std::size(effLadderMhz)));

    return std::make_unique<Device>(std::move(cfg), std::move(die));
}

} // namespace legacy::px

namespace legacy::p2
{

using namespace pvar;

const double perfLadderMhz[] = {300, 576, 825, 1113, 1401, 1574, 1824,
                                2112, 2457};
const double effLadderMhz[] = {300, 576, 825, 1113, 1401, 1670, 1900};

VoltageBinningConfig
ladderConfig(const double *mhz, std::size_t n)
{
    VoltageBinningConfig cfg;
    for (std::size_t i = 0; i < n; ++i)
        cfg.frequencyLadder.push_back(MegaHertz(mhz[i]));
    cfg.guardBand = 0.022;
    cfg.vCeiling = Volts(1.00);
    cfg.vFloor = Volts(0.50);
    return cfg;
}

DeviceConfig
pixel2Config()
{
    DeviceConfig cfg;
    cfg.model = "Google Pixel 2";
    cfg.socName = "SD-835";

    cfg.package.dieCapacitance = 2.2;
    cfg.package.socCapacitance = 24.0;
    cfg.package.batteryCapacitance = 44.0;
    cfg.package.caseCapacitance = 70.0;
    cfg.package.dieToSoc = 0.34;
    cfg.package.socToCase = 0.36;
    cfg.package.socToBattery = 0.10;
    cfg.package.batteryToCase = 0.15;
    cfg.package.caseToAmbient = 0.26;

    CoreType kryoGold;
    kryoGold.name = "Kryo-280-gold";
    kryoGold.sizeFactor = 2.00;
    kryoGold.cyclesPerIteration = 1.75e9;

    CoreType kryoSilver;
    kryoSilver.name = "Kryo-280-silver";
    kryoSilver.sizeFactor = 0.90;
    kryoSilver.cyclesPerIteration = 2.60e9;

    ClusterParams gold;
    gold.name = "gold";
    gold.coreType = kryoGold;
    gold.coreCount = 4;

    ClusterParams silver;
    silver.name = "silver";
    silver.coreType = kryoSilver;
    silver.coreCount = 4;

    cfg.soc.name = "SD-835";
    cfg.soc.clusters = {gold, silver};
    cfg.soc.uncoreActive = Watts(0.24);
    cfg.soc.uncoreSuspended = Watts(0.010);

    cfg.sensor.period = Time::msec(100);
    cfg.sensor.quantum = 1.0;
    cfg.sensor.noiseSigma = 0.2;

    cfg.thermalGov.trips = {
        TripPoint{Celsius(72.0), Celsius(70.0), MegaHertz(2112)},
        TripPoint{Celsius(75.0), Celsius(73.0), MegaHertz(1824)},
        TripPoint{Celsius(78.0), Celsius(76.0), MegaHertz(1574)},
        TripPoint{Celsius(81.0), Celsius(79.0), MegaHertz(1401)},
    };
    cfg.thermalGov.pollPeriod = Time::msec(250);

    cfg.hasRbcpr = true;
    cfg.rbcpr.baseRecoup = 0.012;
    cfg.rbcpr.leakGain = 0.004;
    cfg.rbcpr.speedGain = 0.18;
    cfg.rbcpr.tempGain = 0.00012;
    cfg.rbcpr.maxRecoup = 0.030;

    cfg.backgroundNoiseMean = 0.008;
    cfg.backgroundNoisePeriod = Time::sec(15);
    cfg.boardActive = Watts(0.10);
    cfg.pmicEfficiency = 0.90;

    cfg.battery.capacityWh = 10.7; // 2700 mAh
    cfg.battery.nominal = Volts(3.85);

    return cfg;
}

std::unique_ptr<Device>
makePixel2(const UnitCorner &corner)
{
    DeviceConfig cfg = pixel2Config();
    VariationModel model(node10nmLPE());
    Die die = model.dieAtCorner(corner.corner, corner.leakResidual,
                                corner.vthOffset, corner.id);

    cfg.soc.clusters[0].table = fuseTableForDie(
        die, ladderConfig(perfLadderMhz, std::size(perfLadderMhz)));
    cfg.soc.clusters[1].table = fuseTableForDie(
        die, ladderConfig(effLadderMhz, std::size(effLadderMhz)));

    return std::make_unique<Device>(std::move(cfg), std::move(die));
}

} // namespace legacy::p2

// ---------------------------------------------------------------------
// Field-for-field config comparison with exact double equality.
// ---------------------------------------------------------------------

namespace
{

void
expectTablesEqual(const VfTable &a, const VfTable &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.point(i).freq.value(), b.point(i).freq.value());
        EXPECT_EQ(a.point(i).voltage.value(),
                  b.point(i).voltage.value());
    }
}

void
expectConfigsEqual(const DeviceConfig &a, const DeviceConfig &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.socName, b.socName);

    EXPECT_EQ(a.package.dieCapacitance, b.package.dieCapacitance);
    EXPECT_EQ(a.package.socCapacitance, b.package.socCapacitance);
    EXPECT_EQ(a.package.batteryCapacitance,
              b.package.batteryCapacitance);
    EXPECT_EQ(a.package.caseCapacitance, b.package.caseCapacitance);
    EXPECT_EQ(a.package.dieToSoc, b.package.dieToSoc);
    EXPECT_EQ(a.package.socToCase, b.package.socToCase);
    EXPECT_EQ(a.package.socToBattery, b.package.socToBattery);
    EXPECT_EQ(a.package.batteryToCase, b.package.batteryToCase);
    EXPECT_EQ(a.package.caseToAmbient, b.package.caseToAmbient);

    EXPECT_EQ(a.soc.name, b.soc.name);
    EXPECT_EQ(a.soc.uncoreActive.value(), b.soc.uncoreActive.value());
    EXPECT_EQ(a.soc.uncoreSuspended.value(),
              b.soc.uncoreSuspended.value());
    ASSERT_EQ(a.soc.clusters.size(), b.soc.clusters.size());
    for (std::size_t c = 0; c < a.soc.clusters.size(); ++c) {
        const ClusterParams &ca = a.soc.clusters[c];
        const ClusterParams &cb = b.soc.clusters[c];
        EXPECT_EQ(ca.name, cb.name);
        EXPECT_EQ(ca.coreType.name, cb.coreType.name);
        EXPECT_EQ(ca.coreType.sizeFactor, cb.coreType.sizeFactor);
        EXPECT_EQ(ca.coreType.cyclesPerIteration,
                  cb.coreType.cyclesPerIteration);
        EXPECT_EQ(ca.coreCount, cb.coreCount);
        EXPECT_EQ(ca.idleDynamicFraction, cb.idleDynamicFraction);
        EXPECT_EQ(ca.offlineLeakFraction, cb.offlineLeakFraction);
        expectTablesEqual(ca.table, cb.table);
    }

    EXPECT_EQ(a.sensor.period.toUsec(), b.sensor.period.toUsec());
    EXPECT_EQ(a.sensor.quantum, b.sensor.quantum);
    EXPECT_EQ(a.sensor.noiseSigma, b.sensor.noiseSigma);
    EXPECT_EQ(a.sensor.offset, b.sensor.offset);

    ASSERT_EQ(a.thermalGov.trips.size(), b.thermalGov.trips.size());
    for (std::size_t t = 0; t < a.thermalGov.trips.size(); ++t) {
        EXPECT_EQ(a.thermalGov.trips[t].trip.value(),
                  b.thermalGov.trips[t].trip.value());
        EXPECT_EQ(a.thermalGov.trips[t].clear.value(),
                  b.thermalGov.trips[t].clear.value());
        EXPECT_EQ(a.thermalGov.trips[t].cap.value(),
                  b.thermalGov.trips[t].cap.value());
    }
    ASSERT_EQ(a.thermalGov.shutdowns.size(),
              b.thermalGov.shutdowns.size());
    for (std::size_t s = 0; s < a.thermalGov.shutdowns.size(); ++s) {
        EXPECT_EQ(a.thermalGov.shutdowns[s].trip.value(),
                  b.thermalGov.shutdowns[s].trip.value());
        EXPECT_EQ(a.thermalGov.shutdowns[s].clear.value(),
                  b.thermalGov.shutdowns[s].clear.value());
        EXPECT_EQ(a.thermalGov.shutdowns[s].coresOffline,
                  b.thermalGov.shutdowns[s].coresOffline);
    }
    EXPECT_EQ(a.thermalGov.pollPeriod.toUsec(),
              b.thermalGov.pollPeriod.toUsec());

    EXPECT_EQ(a.hasRbcpr, b.hasRbcpr);
    EXPECT_EQ(a.rbcpr.baseRecoup, b.rbcpr.baseRecoup);
    EXPECT_EQ(a.rbcpr.leakGain, b.rbcpr.leakGain);
    EXPECT_EQ(a.rbcpr.speedGain, b.rbcpr.speedGain);
    EXPECT_EQ(a.rbcpr.tempGain, b.rbcpr.tempGain);
    EXPECT_EQ(a.rbcpr.tRef.value(), b.rbcpr.tRef.value());
    EXPECT_EQ(a.rbcpr.maxRecoup, b.rbcpr.maxRecoup);
    EXPECT_EQ(a.rbcpr.period.toUsec(), b.rbcpr.period.toUsec());

    EXPECT_EQ(a.hasInputVoltageThrottle, b.hasInputVoltageThrottle);
    EXPECT_EQ(a.inputThrottle.engageBelow.value(),
              b.inputThrottle.engageBelow.value());
    EXPECT_EQ(a.inputThrottle.releaseAbove.value(),
              b.inputThrottle.releaseAbove.value());
    EXPECT_EQ(a.inputThrottle.cap.value(),
              b.inputThrottle.cap.value());
    EXPECT_EQ(a.inputThrottle.pollPeriod.toUsec(),
              b.inputThrottle.pollPeriod.toUsec());

    EXPECT_EQ(a.boardActive.value(), b.boardActive.value());
    EXPECT_EQ(a.boardSuspended.value(), b.boardSuspended.value());
    EXPECT_EQ(a.pmicEfficiency, b.pmicEfficiency);

    EXPECT_EQ(a.battery.capacityWh, b.battery.capacityWh);
    EXPECT_EQ(a.battery.internalResistance,
              b.battery.internalResistance);
    EXPECT_EQ(a.battery.age, b.battery.age);
    EXPECT_EQ(a.battery.nominal.value(), b.battery.nominal.value());
    EXPECT_EQ(a.battery.vFull.value(), b.battery.vFull.value());
    EXPECT_EQ(a.battery.vEmpty.value(), b.battery.vEmpty.value());

    EXPECT_EQ(a.initialAmbient.value(), b.initialAmbient.value());
    EXPECT_EQ(a.sensorSeed, b.sensorSeed);
    EXPECT_EQ(a.backgroundNoiseMean, b.backgroundNoiseMean);
    EXPECT_EQ(a.backgroundNoisePeriod.toUsec(),
              b.backgroundNoisePeriod.toUsec());
    EXPECT_EQ(a.tracePeriod.toUsec(), b.tracePeriod.toUsec());
}

/** Corners spanning the calibrated fleet's range, plus extremes. */
const UnitCorner probeCorners[] = {
    UnitCorner{"probe-slow", -2.0, -0.3, -0.01},
    UnitCorner{"probe-typ", 0.0, 0.0, 0.0},
    UnitCorner{"probe-fast", 2.0, 0.4, 0.01},
};

} // namespace

// ---------------------------------------------------------------------
// Spec <-> legacy equivalence, all six models.
// ---------------------------------------------------------------------

TEST(SpecEquivalence, Nexus5AllBins)
{
    for (int bin = 0; bin <= 6; ++bin) {
        SCOPED_TRACE(bin);
        expectConfigsEqual(legacy::n5::nexus5Config(bin),
                           resolveDeviceConfig(nexus5Spec(), bin));
    }
}

TEST(SpecEquivalence, Nexus5BuiltDevices)
{
    for (const UnitCorner &corner : probeCorners) {
        SCOPED_TRACE(corner.id);
        UnitCorner bin2 = corner;
        bin2.bin = 2;
        expectConfigsEqual(legacy::n5::makeNexus5(2, corner)->config(),
                           makeUnitForSoc("SD-800", bin2)->config());
    }
}

TEST(SpecEquivalence, Nexus6)
{
    expectConfigsEqual(legacy::n6::nexus6Config(),
                       resolveDeviceConfig(nexus6Spec(), 0));
    for (const UnitCorner &corner : probeCorners) {
        SCOPED_TRACE(corner.id);
        expectConfigsEqual(legacy::n6::makeNexus6(corner)->config(),
                           makeUnitForSoc("SD-805", corner)->config());
    }
}

TEST(SpecEquivalence, Nexus6p)
{
    expectConfigsEqual(legacy::n6p::nexus6pConfig(),
                       resolveDeviceConfig(nexus6pSpec(), 0));
    for (const UnitCorner &corner : probeCorners) {
        SCOPED_TRACE(corner.id);
        expectConfigsEqual(legacy::n6p::makeNexus6p(corner)->config(),
                           makeUnitForSoc("SD-810", corner)->config());
    }
}

TEST(SpecEquivalence, LgG5)
{
    expectConfigsEqual(legacy::g5::lgG5Config(),
                       resolveDeviceConfig(lgG5Spec(), 0));
    for (const UnitCorner &corner : probeCorners) {
        SCOPED_TRACE(corner.id);
        expectConfigsEqual(legacy::g5::makeLgG5(corner)->config(),
                           makeUnitForSoc("SD-820", corner)->config());
    }
}

TEST(SpecEquivalence, Pixel)
{
    expectConfigsEqual(legacy::px::pixelConfig(),
                       resolveDeviceConfig(pixelSpec(), 0));
    for (const UnitCorner &corner : probeCorners) {
        SCOPED_TRACE(corner.id);
        expectConfigsEqual(legacy::px::makePixel(corner)->config(),
                           makeUnitForSoc("SD-821", corner)->config());
    }
}

TEST(SpecEquivalence, Pixel2)
{
    expectConfigsEqual(legacy::p2::pixel2Config(),
                       resolveDeviceConfig(pixel2Spec(), 0));
    for (const UnitCorner &corner : probeCorners) {
        SCOPED_TRACE(corner.id);
        expectConfigsEqual(legacy::p2::makePixel2(corner)->config(),
                           makeUnitForSoc("SD-835", corner)->config());
    }
}

// ---------------------------------------------------------------------
// Registry behaviour.
// ---------------------------------------------------------------------

TEST(Registry, FindBySocAndModel)
{
    const DeviceRegistry &r = DeviceRegistry::builtin();
    EXPECT_EQ(r.find("SD-800"), r.find("Nexus 5"));
    EXPECT_EQ(r.find("SD-835"), r.find("Google Pixel 2"));
    EXPECT_EQ(r.find("SD-999"), nullptr);
    EXPECT_EQ(r.entries().size(), 6u);
}

TEST(Registry, StudySocNamesMatchPaperOrder)
{
    const std::vector<std::string> expected = {
        "SD-800", "SD-805", "SD-810", "SD-820", "SD-821",
    };
    EXPECT_EQ(DeviceRegistry::builtin().studySocNames(), expected);
}

TEST(Registry, FindUnit)
{
    const DeviceRegistry &r = DeviceRegistry::builtin();

    UnitRef bare = r.findUnit("dev-363");
    ASSERT_NE(bare.entry, nullptr);
    EXPECT_EQ(bare.entry->spec.socName, "SD-810");
    EXPECT_EQ(bare.entry->units[bare.unitIndex].id, "dev-363");

    UnitRef qualified = r.findUnit("SD-820:unit-3");
    ASSERT_NE(qualified.entry, nullptr);
    EXPECT_EQ(qualified.entry->spec.model, "LG G5");
    EXPECT_EQ(qualified.entry->units[qualified.unitIndex].id, "unit-3");

    EXPECT_EQ(r.findUnit("no-such-unit").entry, nullptr);
    EXPECT_EQ(r.findUnit("SD-800:dev-363").entry, nullptr);
}

TEST(Registry, BuildFleetMatchesLegacyFleets)
{
    // The registry-built fleet must be the same units, same order,
    // same configs as the legacy per-model fleet functions produced.
    struct Case
    {
        const char *soc;
        std::vector<std::unique_ptr<Device>> legacyFleet;
    };
    std::vector<Case> cases;
    {
        Case n5{"SD-800", {}};
        n5.legacyFleet.push_back(legacy::n5::makeNexus5(
            0, UnitCorner{"bin-0", -1.75, +0.15, 0.0}));
        n5.legacyFleet.push_back(legacy::n5::makeNexus5(
            1, UnitCorner{"bin-1", -0.70, -0.10, 0.0}));
        n5.legacyFleet.push_back(legacy::n5::makeNexus5(
            2, UnitCorner{"bin-2", +0.30, +0.10, 0.0}));
        n5.legacyFleet.push_back(legacy::n5::makeNexus5(
            3, UnitCorner{"bin-3", +1.25, +0.10, 0.0}));
        cases.push_back(std::move(n5));

        Case g5{"SD-820", {}};
        g5.legacyFleet.push_back(
            legacy::g5::makeLgG5(UnitCorner{"unit-1", -1.00, -0.25, 0.0}));
        g5.legacyFleet.push_back(
            legacy::g5::makeLgG5(UnitCorner{"unit-2", -0.40, +0.05, 0.0}));
        g5.legacyFleet.push_back(
            legacy::g5::makeLgG5(UnitCorner{"unit-3", 0.00, 0.00, 0.0}));
        g5.legacyFleet.push_back(
            legacy::g5::makeLgG5(UnitCorner{"unit-4", +0.50, +0.10, 0.0}));
        g5.legacyFleet.push_back(
            legacy::g5::makeLgG5(UnitCorner{"unit-5", +1.00, +0.35, 0.0}));
        cases.push_back(std::move(g5));
    }

    for (const Case &c : cases) {
        SCOPED_TRACE(c.soc);
        Fleet fleet = fleetForSoc(c.soc);
        ASSERT_EQ(fleet.size(), c.legacyFleet.size());
        for (std::size_t u = 0; u < fleet.size(); ++u) {
            SCOPED_TRACE(u);
            EXPECT_EQ(fleet[u]->unitId(), c.legacyFleet[u]->unitId());
            expectConfigsEqual(fleet[u]->config(),
                               c.legacyFleet[u]->config());
        }
    }
}

// ---------------------------------------------------------------------
// JSON round-trip.
// ---------------------------------------------------------------------

namespace
{

/** serialize -> parse -> rebuild -> serialize must be a fixpoint. */
void
expectSpecRoundTrips(const DeviceSpec &spec)
{
    std::string first = toJson(spec);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(first, doc, error)) << error;
    DeviceSpec rebuilt = specFromJson(doc);
    EXPECT_EQ(toJson(rebuilt), first);

    // The rebuilt spec must also materialize identical configs.
    expectConfigsEqual(resolveDeviceConfig(spec, spec.defaultBin),
                       resolveDeviceConfig(rebuilt, rebuilt.defaultBin));
    UnitCorner corner{"rt-probe", 0.7, 0.1, 0.002};
    expectConfigsEqual(buildDevice(spec, corner)->config(),
                       buildDevice(rebuilt, corner)->config());
}

} // namespace

TEST(SpecJson, EveryBuiltinSpecRoundTrips)
{
    for (const RegistryEntry &e : DeviceRegistry::builtin().entries()) {
        SCOPED_TRACE(e.spec.model);
        expectSpecRoundTrips(e.spec);
    }
}

TEST(SpecJson, FleetDocumentRoundTrips)
{
    const std::vector<RegistryEntry> &entries =
        DeviceRegistry::builtin().entries();
    std::string first = fleetToJson(entries);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(first, doc, error)) << error;
    std::vector<RegistryEntry> rebuilt = fleetFromJson(doc);

    ASSERT_EQ(rebuilt.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        SCOPED_TRACE(entries[i].spec.model);
        EXPECT_EQ(rebuilt[i].fixedFrequency.value(),
                  entries[i].fixedFrequency.value());
        EXPECT_EQ(rebuilt[i].monsoonVoltage.value(),
                  entries[i].monsoonVoltage.value());
        EXPECT_EQ(rebuilt[i].inStudy, entries[i].inStudy);
        ASSERT_EQ(rebuilt[i].units.size(), entries[i].units.size());
        for (std::size_t u = 0; u < entries[i].units.size(); ++u) {
            EXPECT_EQ(rebuilt[i].units[u].id, entries[i].units[u].id);
            EXPECT_EQ(rebuilt[i].units[u].corner,
                      entries[i].units[u].corner);
            EXPECT_EQ(rebuilt[i].units[u].leakResidual,
                      entries[i].units[u].leakResidual);
            EXPECT_EQ(rebuilt[i].units[u].vthOffset,
                      entries[i].units[u].vthOffset);
            EXPECT_EQ(rebuilt[i].units[u].bin, entries[i].units[u].bin);
        }
    }

    // Fixpoint: the rebuilt fleet serializes to the same document.
    EXPECT_EQ(fleetToJson(rebuilt), first);
}

TEST(SpecJson, BaseReferenceResolvesAgainstBuiltins)
{
    const char *text = R"({
      "fleet": [ {
        "base": "SD-810",
        "units": [ { "id": "lab-1", "corner": -2.0 } ]
      } ]
    })";
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, error)) << error;
    std::vector<RegistryEntry> fleet = fleetFromJson(doc);

    ASSERT_EQ(fleet.size(), 1u);
    EXPECT_EQ(fleet[0].spec.model, "Nexus 6P");
    EXPECT_EQ(fleet[0].fixedFrequency.value(), 864.0);
    ASSERT_EQ(fleet[0].units.size(), 1u);
    EXPECT_EQ(fleet[0].units[0].id, "lab-1");

    // The derived entry builds the same device the catalog would.
    UnitCorner corner{"lab-1", -2.0, 0.0, 0.0};
    expectConfigsEqual(buildDevice(fleet[0].spec, corner)->config(),
                       legacy::n6p::makeNexus6p(corner)->config());
}

TEST(SpecJson, SaveLoadFleetFile)
{
    std::string path =
        testing::TempDir() + "/pvar_spec_json_fleet.json";
    const std::vector<RegistryEntry> &entries =
        DeviceRegistry::builtin().entries();
    saveFleetFile(path, entries);
    std::vector<RegistryEntry> loaded = loadFleetFile(path);
    ASSERT_EQ(loaded.size(), entries.size());
    EXPECT_EQ(fleetToJson(loaded), fleetToJson(entries));
}

// ---------------------------------------------------------------------
// V-F interpolation helper (the hoisted interpolateMv).
// ---------------------------------------------------------------------

TEST(VfTableAnchors, MatchesLegacyInterpolation)
{
    std::vector<double> anchor_mhz(std::begin(legacy::n5::tableIFreqs),
                                   std::end(legacy::n5::tableIFreqs));
    for (int bin = 0; bin <= 6; ++bin) {
        std::vector<double> anchor_mv(
            std::begin(legacy::n5::tableIMv[bin]),
            std::end(legacy::n5::tableIMv[bin]));
        // Probe below, on, between, and above the anchors.
        for (double f : {250.0, 300.0, 500.0, 960.0, 1190.0, 2265.0,
                         2600.0}) {
            EXPECT_EQ(interpolateAnchorMv(anchor_mhz, anchor_mv, f),
                      legacy::n5::interpolateMv(bin, f))
                << "bin " << bin << " freq " << f;
        }
    }
}

TEST(VfTableAnchors, ExpandsLadder)
{
    std::vector<double> ladder = {300, 600, 960};
    std::vector<double> anchors = {300, 960};
    std::vector<double> mv = {800, 900};
    VfTable table = vfTableFromAnchors(ladder, anchors, mv);
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.point(0).voltage.value(), 0.800);
    EXPECT_EQ(table.point(1).voltage.value(),
              Volts::fromMillivolts(800 + (600.0 - 300.0) /
                                              (960.0 - 300.0) * 100.0)
                  .value());
    EXPECT_EQ(table.point(2).voltage.value(), 0.900);
}
