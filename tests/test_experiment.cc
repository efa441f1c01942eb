/**
 * @file
 * Tests for the experiment runner (thermabox + supply + N iterations).
 */

#include <gtest/gtest.h>

#include "accubench/experiment.hh"
#include "device/fleet.hh"

namespace pvar
{
namespace
{

ExperimentConfig
quickConfig()
{
    ExperimentConfig cfg;
    cfg.iterations = 2;
    cfg.accubench.warmupDuration = Time::sec(30);
    cfg.accubench.workloadDuration = Time::sec(60);
    cfg.accubench.cooldownTarget = Celsius(34.0);
    return cfg;
}

TEST(Experiment, RunsRequestedIterations)
{
    auto d = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    ExperimentResult r = runExperiment(*d, quickConfig());
    ASSERT_EQ(r.iterations.size(), 2u);
    EXPECT_EQ(r.unitId, "x");
    EXPECT_EQ(r.model, "Nexus 5");
    EXPECT_EQ(r.socName, "SD-800");
    for (const auto &it : r.iterations) {
        EXPECT_GT(it.score, 0.0);
        EXPECT_GT(it.workloadEnergy.value(), 0.0);
    }
}

TEST(Experiment, SummariesMatchIterations)
{
    auto d = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    ExperimentResult r = runExperiment(*d, quickConfig());
    double sum = 0.0;
    for (const auto &it : r.iterations)
        sum += it.score;
    EXPECT_NEAR(r.meanScore(), sum / 2.0, 1e-9);
    EXPECT_GE(r.scoreRsdPercent(), 0.0);
}

TEST(Experiment, FixedFrequencyModePins)
{
    auto d = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    ExperimentConfig cfg = quickConfig();
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = MegaHertz(960);
    ExperimentResult r = runExperiment(*d, cfg);

    // 4 cores at 960 MHz / 2.6e9 cyc for 60 s.
    double expected = 4.0 * 0.96e9 / 2.6e9 * 60.0;
    for (const auto &it : r.iterations)
        EXPECT_NEAR(it.score, expected, expected * 0.01);
}

TEST(Experiment, UnconstrainedOutscoresFixed)
{
    auto d = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    ExperimentResult unc = runExperiment(*d, quickConfig());
    ExperimentConfig fix_cfg = quickConfig();
    fix_cfg.mode = WorkloadMode::FixedFrequency;
    fix_cfg.fixedFrequency = MegaHertz(1190);
    ExperimentResult fix = runExperiment(*d, fix_cfg);
    EXPECT_GT(unc.meanScore(), fix.meanScore());
}

TEST(Experiment, MonsoonVoltageChoicesWork)
{
    auto d = makeUnitForSoc("SD-820", UnitCorner{"g5", 0, 0, 0});

    ExperimentConfig nominal = quickConfig();
    nominal.supply = SupplyChoice::MonsoonNominal; // 3.85 V -> throttled
    ExperimentResult low = runExperiment(*d, nominal);

    ExperimentConfig high = quickConfig();
    high.supply = SupplyChoice::MonsoonExplicit;
    high.monsoonVoltage = Volts(4.40);
    ExperimentResult full = runExperiment(*d, high);

    // The Fig 10 anomaly: nominal-voltage supply loses ~20%.
    EXPECT_LT(low.meanScore(), full.meanScore() * 0.9);
}

TEST(Experiment, BatterySupplyMatchesHighVoltageMonsoon)
{
    auto d = makeUnitForSoc("SD-820", UnitCorner{"g5", 0, 0, 0});

    ExperimentConfig batt = quickConfig();
    batt.supply = SupplyChoice::Battery;
    batt.batterySoc = 0.95;
    ExperimentResult on_battery = runExperiment(*d, batt);

    ExperimentConfig mon = quickConfig();
    mon.supply = SupplyChoice::MonsoonExplicit;
    mon.monsoonVoltage = Volts(4.40);
    ExperimentResult on_monsoon = runExperiment(*d, mon);

    EXPECT_NEAR(on_battery.meanScore() / on_monsoon.meanScore(), 1.0,
                0.03);
}

TEST(Experiment, TraceCoversWholeRun)
{
    auto d = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    ExperimentResult r = runExperiment(*d, quickConfig());
    ASSERT_TRUE(r.trace->hasChannel("die_temp"));
    const auto &ch = r.trace->channel("die_temp");
    // Box stabilization + 2 iterations at >= 90 s each.
    EXPECT_GT(ch.samples().back().when, Time::minutes(3));
}

TEST(Experiment, DeviceRestoredAfterRun)
{
    auto d = makeUnitForSoc("SD-800", UnitCorner{"x", 0, 0, 0, 2});
    ExperimentConfig cfg = quickConfig();
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = MegaHertz(300);
    runExperiment(*d, cfg);
    EXPECT_EQ(d->wakelockCount(), 0);
    EXPECT_FALSE(d->workloadRunning());
}

TEST(Experiment, HotterAmbientCostsEnergy)
{
    // The Fig 2 mechanism in miniature: same work at higher chamber
    // temperature needs more energy.
    auto d = makeUnitForSoc("SD-800", UnitCorner{"x", 0.5, 0.2, 0, 2});
    ExperimentConfig cool = quickConfig();
    cool.mode = WorkloadMode::FixedFrequency;
    cool.fixedFrequency = MegaHertz(1574);
    cool.thermabox.target = Celsius(15.0);
    cool.accubench.cooldownTarget = Celsius(25.0);

    ExperimentConfig hot = cool;
    hot.thermabox.target = Celsius(40.0);
    hot.accubench.cooldownTarget = Celsius(48.0);

    ExperimentResult cold_r = runExperiment(*d, cool);
    ExperimentResult hot_r = runExperiment(*d, hot);

    EXPECT_GT(hot_r.meanWorkloadEnergy().value(),
              cold_r.meanWorkloadEnergy().value() * 1.05);
    // Same frequency, same work.
    EXPECT_NEAR(hot_r.meanScore(), cold_r.meanScore(),
                cold_r.meanScore() * 0.01);
}

} // namespace
} // namespace pvar
