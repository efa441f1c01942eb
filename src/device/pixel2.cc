/**
 * @file
 * Google Pixel 2 (Snapdragon 835) model — EXTENSION, not paper data.
 *
 * The paper covered "5 out of the possible 8 generations of Qualcomm
 * SoCs released since 2013"; the SD-835 (10 nm LPE, 2017) is the next
 * generation after the studied SD-821. This model extends the catalog
 * one step to let the library *predict* how the variation story
 * continues: a further FinFET shrink with lower supply voltages and
 * lower reference leakage, so both knobs that expose process
 * variation shrink with it. The extension bench checks the predicted
 * trend (variation below the SD-821's, efficiency above it).
 *
 * Parameters follow the same engineering-calibration approach as the
 * five paper models; nothing here is measured silicon data.
 */

#include "device/catalog.hh"

#include "silicon/process_node.hh"

namespace pvar
{

ProcessNode
node10nmLPE()
{
    ProcessNode node;
    node.name = "10nm LPE FinFET";
    node.feature_nm = 10.0;
    node.vNominal = Volts(0.80);
    node.vMin = Volts(0.50);
    node.vMax = Volts(1.00);
    node.vThreshold = Volts(0.28);
    node.alpha = 1.25;
    node.speedConstant = 5400.0;
    node.ceffPerCore = 0.33e-9;
    // Second-generation FinFET: lower reference leakage again, and a
    // slightly tighter die-to-die spread as the process matures.
    node.leakRef = Amps(0.100);
    node.leakVoltSlope = 0.19;
    node.leakTempSlope = 34.0;
    node.tRef = Celsius(40.0);
    node.sigmaSpeed = 0.007;
    node.corrLeak = 0.70;
    node.sigmaLeakResidual = 0.09;
    node.sigmaVth = 0.008;
    return node;
}

namespace
{

VoltageBinningConfig
sd835Fusing(std::initializer_list<double> ladder_mhz)
{
    VoltageBinningConfig cfg;
    for (double f : ladder_mhz)
        cfg.frequencyLadder.push_back(MegaHertz(f));
    cfg.guardBand = 0.022;
    cfg.vCeiling = Volts(1.00);
    cfg.vFloor = Volts(0.50);
    return cfg;
}

} // namespace

DeviceSpec
pixel2Spec()
{
    DeviceSpec spec;
    spec.model = "Google Pixel 2";
    spec.socName = "SD-835";
    spec.silicon = node10nmLPE();

    spec.package.dieCapacitance = 2.2;
    spec.package.socCapacitance = 24.0;
    spec.package.batteryCapacitance = 44.0;
    spec.package.caseCapacitance = 70.0;
    spec.package.dieToSoc = 0.34;
    spec.package.socToCase = 0.36;
    spec.package.socToBattery = 0.10;
    spec.package.batteryToCase = 0.15;
    spec.package.caseToAmbient = 0.26;

    ClusterSpec gold;
    gold.name = "gold";
    gold.coreType.name = "Kryo-280-gold";
    gold.coreType.sizeFactor = 2.00;
    gold.coreType.cyclesPerIteration = 1.75e9;
    gold.coreCount = 4;
    gold.source = VfSource::FusedPerDie;
    gold.binning =
        sd835Fusing({300, 576, 825, 1113, 1401, 1574, 1824, 2112, 2457});

    ClusterSpec silver;
    silver.name = "silver";
    silver.coreType.name = "Kryo-280-silver";
    silver.coreType.sizeFactor = 0.90;
    silver.coreType.cyclesPerIteration = 2.60e9;
    silver.coreCount = 4;
    silver.source = VfSource::FusedPerDie;
    silver.binning =
        sd835Fusing({300, 576, 825, 1113, 1401, 1670, 1900});

    spec.clusters = {gold, silver};

    spec.uncoreActive = Watts(0.24);
    spec.uncoreSuspended = Watts(0.010);

    spec.sensor.period = Time::msec(100);
    spec.sensor.quantum = 1.0;
    spec.sensor.noiseSigma = 0.2;

    spec.thermalGov.trips = {
        TripPoint{Celsius(72.0), Celsius(70.0), MegaHertz(2112)},
        TripPoint{Celsius(75.0), Celsius(73.0), MegaHertz(1824)},
        TripPoint{Celsius(78.0), Celsius(76.0), MegaHertz(1574)},
        TripPoint{Celsius(81.0), Celsius(79.0), MegaHertz(1401)},
    };
    spec.thermalGov.pollPeriod = Time::msec(250);

    spec.hasRbcpr = true;
    spec.rbcpr.baseRecoup = 0.012;
    spec.rbcpr.leakGain = 0.004;
    spec.rbcpr.speedGain = 0.18;
    spec.rbcpr.tempGain = 0.00012;
    spec.rbcpr.maxRecoup = 0.030;

    spec.backgroundNoiseMean = 0.008;
    spec.backgroundNoisePeriod = Time::sec(15);
    spec.boardActive = Watts(0.10);
    spec.pmicEfficiency = 0.90;

    spec.battery.capacityWh = 10.7; // 2700 mAh
    spec.battery.nominal = Volts(3.85);

    return spec;
}

} // namespace pvar
