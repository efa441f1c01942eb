/**
 * @file
 * Tests for the THERMABOX controlled thermal environment.
 */

#include <gtest/gtest.h>

#include "device/fleet.hh"
#include "sim/simulator.hh"
#include "thermabox/thermabox.hh"

namespace pvar
{
namespace
{

TEST(Thermabox, HoldsTargetBandWhenEmpty)
{
    Thermabox box((ThermaboxParams()));
    Simulator sim(Time::msec(100));
    sim.add(&box);
    sim.runFor(Time::minutes(10));

    EXPECT_NEAR(box.airTemp().value(), 26.0, 0.6);
    EXPECT_TRUE(box.stable());
}

TEST(Thermabox, RegulatesAgainstDeviceHeat)
{
    // A phone dumping several watts into the chamber must not push
    // the air out of the paper's +/-0.5 C band.
    Thermabox box((ThermaboxParams()));
    auto device = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    Simulator sim(Time::msec(10));
    sim.add(&box);
    sim.add(device.get());
    box.placeDevice(device.get());
    device->acquireWakelock();
    device->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::minutes(12));

    EXPECT_NEAR(box.airTemp().value(), 26.0, 0.75);
    EXPECT_TRUE(box.stable());
}

TEST(Thermabox, ReachesRaisedTarget)
{
    Thermabox box((ThermaboxParams()));
    Simulator sim(Time::msec(100));
    sim.add(&box);
    box.setTarget(Celsius(38.0));
    EXPECT_FALSE(box.stable());
    sim.runFor(Time::minutes(30));
    EXPECT_NEAR(box.airTemp().value(), 38.0, 0.8);
    EXPECT_TRUE(box.stable());
    // Heating (lamp) must have run to get there.
    EXPECT_GT(box.lampDutyCycle(), 0.0);
}

TEST(Thermabox, ReachesLoweredTarget)
{
    ThermaboxParams params;
    params.target = Celsius(15.0);
    Thermabox box(params);
    // The box starts pre-regulated at its construction-time target.
    EXPECT_NEAR(box.airTemp().value(), 15.0, 0.01);

    Simulator sim(Time::msec(100));
    sim.add(&box);
    sim.runFor(Time::minutes(20));
    // Must hold 15 C against a 22 C room (compressor duty).
    EXPECT_NEAR(box.airTemp().value(), 15.0, 0.8);
}

TEST(Thermabox, ProbeLagsAirTemperature)
{
    Thermabox box((ThermaboxParams()));
    Simulator sim(Time::msec(100));
    sim.add(&box);
    box.setTarget(Celsius(40.0));
    // After a short burst of heating the probe trails the air.
    sim.runFor(Time::sec(30));
    EXPECT_LT(box.probeTemp().value(), box.airTemp().value());
}

TEST(Thermabox, CouplesDeviceAmbient)
{
    ThermaboxParams params;
    params.target = Celsius(35.0);
    Thermabox box(params);
    auto device = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    box.placeDevice(device.get());
    EXPECT_NEAR(
        device->thermalPackage().ambientTemp().value(), 35.0, 0.1);
}

TEST(Thermabox, StabilityNeedsDwell)
{
    Thermabox box((ThermaboxParams()));
    Simulator sim(Time::msec(100));
    sim.add(&box);
    sim.runFor(Time::sec(30)); // inside band, but dwell is 60 s
    EXPECT_FALSE(box.stable());
    sim.runFor(Time::sec(60));
    EXPECT_TRUE(box.stable());
}

} // namespace
} // namespace pvar
