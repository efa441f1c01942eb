/**
 * @file
 * Integration tests for the assembled Device.
 */

#include <gtest/gtest.h>

#include "device/catalog.hh"
#include "device/fleet.hh"
#include "power/monsoon.hh"
#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"
#include "sim/simulator.hh"

namespace pvar
{
namespace
{

std::unique_ptr<Device>
typicalNexus5()
{
    return makeUnitForSoc("SD-800", UnitCorner{"test", 0.0, 0.0, 0.0, 2});
}

TEST(Device, IdentityStrings)
{
    auto d = typicalNexus5();
    EXPECT_EQ(d->model(), "Nexus 5");
    EXPECT_EQ(d->socName(), "SD-800");
    EXPECT_EQ(d->unitId(), "test");
    EXPECT_EQ(d->name(), "Nexus 5/test");
}

TEST(Device, HeatsUnderLoadCoolsWhenStopped)
{
    auto d = typicalNexus5();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();

    double t0 = d->thermalPackage().dieTemp().value();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::sec(60));
    double t1 = d->thermalPackage().dieTemp().value();
    EXPECT_GT(t1, t0 + 10.0);

    d->stopWorkload();
    sim.runFor(Time::sec(60));
    double t2 = d->thermalPackage().dieTemp().value();
    EXPECT_LT(t2, t1 - 5.0);
}

TEST(Device, EnergyAccruesWithTime)
{
    auto d = typicalNexus5();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::sec(10));
    double e10 = d->energyMeter().total().value();
    sim.runFor(Time::sec(10));
    double e20 = d->energyMeter().total().value();
    EXPECT_GT(e10, 10.0); // several watts for 10 s
    EXPECT_GT(e20, 1.9 * e10);
}

TEST(Device, ThrottlesAtSustainedLoad)
{
    // A leaky Nexus 5 at max frequency must engage mitigation within
    // a few minutes and lose frequency.
    auto d = makeUnitForSoc("SD-800", UnitCorner{"leaky", 1.3, 0.3, 0.0, 3});
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->setPerformanceMode();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::minutes(8));
    EXPECT_TRUE(d->thermalGovernor().mitigating());
    EXPECT_LT(d->soc().cluster(0).frequency().value(), 2265.0);
}

TEST(Device, FixedFrequencyPinsAllClusters)
{
    auto d = typicalNexus5();
    d->setFixedFrequency(MegaHertz(1190));
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::sec(5));
    EXPECT_DOUBLE_EQ(d->soc().cluster(0).frequency().value(), 1190.0);
    sim.runFor(Time::minutes(2));
    EXPECT_DOUBLE_EQ(d->soc().cluster(0).frequency().value(), 1190.0);
}

TEST(Device, SuspendGatesPowerAndWork)
{
    auto d = typicalNexus5();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    // No wakelock, suspend allowed: the device sleeps.
    d->setSuspendAllowed(true);
    sim.runFor(Time::sec(5));
    EXPECT_TRUE(d->suspended());
    EXPECT_LT(d->lastPower().value(), 0.1);

    // A wakelock brings it back.
    d->acquireWakelock();
    sim.step();
    EXPECT_FALSE(d->suspended());
    d->releaseWakelock();
    sim.step();
    EXPECT_TRUE(d->suspended());
}

TEST(Device, StayAwakeWindowWorks)
{
    auto d = typicalNexus5();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->setSuspendAllowed(true);
    sim.runFor(Time::sec(1));
    EXPECT_TRUE(d->suspended());

    d->stayAwakeUntil(sim.now() + Time::msec(100));
    sim.step();
    EXPECT_FALSE(d->suspended());
    sim.runFor(Time::msec(200));
    EXPECT_TRUE(d->suspended());
}

TEST(Device, ExternalSupplySwapsSource)
{
    auto d = typicalNexus5();
    Monsoon monsoon(Volts(4.2));
    d->attachExternalSupply(&monsoon);
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::sec(5));
    EXPECT_GT(monsoon.lifetimeEnergy().value(), 1.0);
    EXPECT_NEAR(d->supplyVoltage().value(), 4.2, 0.1);
    double soc_before = d->battery().stateOfCharge();
    EXPECT_DOUBLE_EQ(soc_before, 1.0); // battery untouched
}

TEST(Device, BatterySupplyDrains)
{
    auto d = typicalNexus5();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::minutes(2));
    EXPECT_LT(d->battery().stateOfCharge(), 1.0);
}

TEST(Device, TraceRecordsExpectedChannels)
{
    auto d = typicalNexus5();
    Trace trace;
    d->attachTrace(&trace);
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::sec(5));

    for (const char *ch : {"die_temp", "case_temp", "power_w",
                           "supply_v", "online_cores", "freq_cpu"})
        EXPECT_TRUE(trace.hasChannel(ch)) << ch;
    EXPECT_GE(trace.channel("die_temp").size(), 9u);
}

TEST(Device, SoakSetsThermalState)
{
    auto d = typicalNexus5();
    d->soakTo(Celsius(35.0));
    EXPECT_DOUBLE_EQ(d->thermalPackage().dieTemp().value(), 35.0);
    EXPECT_NEAR(d->readCpuTemp().value(), 35.0, 1.5);
}

TEST(Device, ResetExperimentStateClearsGovernors)
{
    auto d = makeUnitForSoc("SD-800", UnitCorner{"leaky", 1.3, 0.3, 0.0, 3});
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::minutes(8));
    ASSERT_TRUE(d->thermalGovernor().mitigating());
    d->stopWorkload();
    d->resetExperimentState();
    EXPECT_FALSE(d->thermalGovernor().mitigating());
    EXPECT_DOUBLE_EQ(d->energyMeter().total().value(), 0.0);
    EXPECT_DOUBLE_EQ(d->iterations(), 0.0);
}

TEST(Device, InteractiveModeScalesWithLoad)
{
    auto d = typicalNexus5();
    d->setInteractiveMode();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();

    // A light workload settles at a low-to-mid OPP...
    CpuIntensiveWorkload light;
    light.utilization = 0.25;
    d->startWorkload(light);
    sim.runFor(Time::sec(10));
    double light_freq = d->soc().cluster(0).frequency().value();
    double light_power = d->lastPower().value();
    EXPECT_LT(light_freq, 2265.0);

    // ...and a heavy one races to the top.
    CpuIntensiveWorkload heavy;
    heavy.utilization = 1.0;
    d->startWorkload(heavy);
    sim.runFor(Time::sec(10));
    EXPECT_DOUBLE_EQ(d->soc().cluster(0).frequency().value(), 2265.0);
    EXPECT_GT(d->lastPower().value(), light_power * 1.5);
}

TEST(Device, MakeUnitForSocCoversCatalog)
{
    for (const auto &soc : DeviceRegistry::builtin().studySocNames()) {
        auto d = makeUnitForSoc(soc, UnitCorner{"u", 0.2, 0.1, 0.0});
        EXPECT_EQ(d->socName(), soc);
        EXPECT_EQ(d->unitId(), "u");
    }
    EXPECT_DEATH((void)makeUnitForSoc("SD-1", UnitCorner{}), "");
}

TEST(Device, BackgroundNoisePerturbsScores)
{
    // Two identical dies, different noise seeds: with background
    // noise configured, scores differ slightly but systematically
    // stay within a fraction of a percent.
    DeviceConfig cfg = resolveDeviceConfig(nexus5Spec(), 2);
    cfg.backgroundNoiseMean = 0.01;
    cfg.backgroundNoisePeriod = Time::sec(5);

    VariationModel model(node28nmHPm());
    double scores[2];
    for (int i = 0; i < 2; ++i) {
        DeviceConfig c = cfg;
        c.sensorSeed = 0x1000u + static_cast<unsigned>(i);
        Device device(std::move(c),
                      model.dieAtCorner(0, 0, 0, "noise"));
        Simulator sim(Time::msec(10));
        sim.add(&device);
        device.acquireWakelock();
        device.setFixedFrequency(MegaHertz(1190));
        device.startWorkload(CpuIntensiveWorkload{});
        sim.runFor(Time::minutes(2));
        scores[i] = device.iterations();
    }
    EXPECT_NE(scores[0], scores[1]);
    EXPECT_NEAR(scores[0] / scores[1], 1.0, 0.05);
}

TEST(Device, NoiseDisabledIsDeterministicAcrossSeeds)
{
    DeviceConfig cfg = resolveDeviceConfig(nexus5Spec(), 2);
    cfg.backgroundNoiseMean = 0.0;
    cfg.sensor.noiseSigma = 0.0;

    VariationModel model(node28nmHPm());
    double scores[2];
    for (int i = 0; i < 2; ++i) {
        DeviceConfig c = cfg;
        c.sensorSeed = 0x2000u + static_cast<unsigned>(i);
        Device device(std::move(c),
                      model.dieAtCorner(0, 0, 0, "det"));
        Simulator sim(Time::msec(10));
        sim.add(&device);
        device.acquireWakelock();
        device.setFixedFrequency(MegaHertz(1190));
        device.startWorkload(CpuIntensiveWorkload{});
        sim.runFor(Time::minutes(2));
        scores[i] = device.iterations();
    }
    EXPECT_DOUBLE_EQ(scores[0], scores[1]);
}

TEST(Device, CatalogModelsConstructAndRun)
{
    // Every catalog model assembles and survives a minute of load.
    std::vector<std::unique_ptr<Device>> devices;
    devices.push_back(makeUnitForSoc("SD-800", UnitCorner{"a", 0, 0, 0, 0}));
    devices.push_back(makeUnitForSoc("SD-805", UnitCorner{"b", 0, 0, 0}));
    devices.push_back(makeUnitForSoc("SD-810", UnitCorner{"c", 0, 0, 0}));
    devices.push_back(makeUnitForSoc("SD-820", UnitCorner{"d", 0, 0, 0}));
    devices.push_back(makeUnitForSoc("SD-821", UnitCorner{"e", 0, 0, 0}));

    for (auto &d : devices) {
        Simulator sim(Time::msec(10));
        sim.add(d.get());
        d->acquireWakelock();
        d->startWorkload(CpuIntensiveWorkload{});
        sim.runFor(Time::minutes(1));
        EXPECT_GT(d->iterations(), 0.0) << d->name();
        EXPECT_GT(d->lastPower().value(), 0.5) << d->name();
        EXPECT_GT(d->thermalPackage().dieTemp().value(), 27.0)
            << d->name();
    }
}

TEST(Device, Nexus5TableMatchesTableI)
{
    // The catalog embeds paper Table I; spot-check the corners.
    EXPECT_DOUBLE_EQ(nexus5TableIMillivolts(0, 2265), 1100);
    EXPECT_DOUBLE_EQ(nexus5TableIMillivolts(6, 2265), 950);
    EXPECT_DOUBLE_EQ(nexus5TableIMillivolts(0, 300), 800);
    EXPECT_DOUBLE_EQ(nexus5TableIMillivolts(6, 300), 750);
    EXPECT_DOUBLE_EQ(nexus5TableIMillivolts(3, 960), 820);

    VfTable bin0 = nexus5BinTable(0);
    EXPECT_NEAR(bin0.voltageFor(MegaHertz(2265)).toMillivolts(), 1100,
                1e-9);
    VfTable bin6 = nexus5BinTable(6);
    EXPECT_NEAR(bin6.voltageFor(MegaHertz(729)).toMillivolts(), 760,
                1e-9);
}

TEST(Device, Nexus5BinTablesMonotoneAcrossBins)
{
    for (int bin = 0; bin < 6; ++bin) {
        VfTable hi = nexus5BinTable(bin);
        VfTable lo = nexus5BinTable(bin + 1);
        for (std::size_t i = 0; i < hi.size(); ++i)
            EXPECT_GE(hi.point(i).voltage.value(),
                      lo.point(i).voltage.value())
                << "bins " << bin << "/" << bin + 1 << " at OPP " << i;
    }
}

TEST(Device, Pixel2ExtensionConstructsAndRuns)
{
    auto d = makeUnitForSoc("SD-835", UnitCorner{"p2", 0.3, 0.1, 0.0});
    EXPECT_EQ(d->socName(), "SD-835");
    EXPECT_EQ(d->soc().clusterCount(), 2u);
    EXPECT_EQ(d->soc().totalCores(), 8);

    Simulator sim(Time::msec(10));
    sim.add(d.get());
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::minutes(1));
    EXPECT_GT(d->iterations(), 0.0);
    EXPECT_GT(d->lastPower().value(), 0.5);
}

TEST(Device, TenNanometerNodeContinuesTrends)
{
    // The extension node must continue the physical trends of the
    // series: lower nominal voltage and smaller speed sigma than the
    // 14 nm node it succeeds.
    ProcessNode n14 = node14nmFinFET();
    ProcessNode n10 = node10nmLPE();
    EXPECT_LT(n10.vNominal.value(), n14.vNominal.value());
    EXPECT_LE(n10.sigmaSpeed, n14.sigmaSpeed);
    EXPECT_LT(n10.feature_nm, n14.feature_nm);
}

TEST(Device, FleetsHaveStudySizes)
{
    EXPECT_EQ(fleetForSoc("SD-800").size(), 4u);
    EXPECT_EQ(fleetForSoc("SD-805").size(), 3u);
    EXPECT_EQ(fleetForSoc("SD-810").size(), 3u);
    EXPECT_EQ(fleetForSoc("SD-820").size(), 5u);
    EXPECT_EQ(fleetForSoc("SD-821").size(), 3u);
}

TEST(Device, FleetHelpers)
{
    const DeviceRegistry &reg = DeviceRegistry::builtin();
    EXPECT_EQ(reg.studySocNames().size(), 5u);
    EXPECT_EQ(fleetForSoc("SD-810").size(), 3u);
    EXPECT_DOUBLE_EQ(reg.at("SD-800").fixedFrequency.value(), 1574.0);
    EXPECT_DOUBLE_EQ(reg.at("SD-820").monsoonVoltage.value(), 4.40);
    EXPECT_DEATH((void)fleetForSoc("SD-999"), "");
}

} // namespace
} // namespace pvar
