/**
 * @file
 * Cross-model integration and property tests: invariants that must
 * hold for every device in the catalog, and determinism guarantees
 * for the experiment pipeline.
 */

#include <cmath>
#include <gtest/gtest.h>
#include <string>

#include "accubench/experiment.hh"
#include "device/fleet.hh"
#include "device/registry.hh"
#include "sim/simulator.hh"
#include "thermal/rc_network.hh"

namespace pvar
{
namespace
{

/** Build one representative unit of each model. */
std::unique_ptr<Device>
unitOf(const std::string &soc)
{
    Fleet fleet = fleetForSoc(soc);
    // The middle unit is always a near-typical corner.
    return std::move(fleet[fleet.size() / 2]);
}

class ModelSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ModelSweep, SustainedHotLoadEngagesMitigation)
{
    auto device = unitOf(GetParam());
    device->setAmbient(Celsius(40.0));
    device->soakTo(Celsius(40.0));

    Simulator sim(Time::msec(10));
    sim.add(device.get());
    device->acquireWakelock();
    device->setPerformanceMode();
    device->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::minutes(10));

    EXPECT_TRUE(device->thermalGovernor().mitigating())
        << device->name() << " at "
        << device->thermalPackage().dieTemp().value() << " C";
}

TEST_P(ModelSweep, SuspendPowerIsMilliwatts)
{
    auto device = unitOf(GetParam());
    Simulator sim(Time::msec(10));
    sim.add(device.get());
    device->setSuspendAllowed(true);
    sim.runFor(Time::sec(5));
    ASSERT_TRUE(device->suspended());
    EXPECT_LT(device->lastPower().value(), 0.12) << device->name();
    EXPECT_GT(device->lastPower().value(), 0.0) << device->name();
}

TEST_P(ModelSweep, DieNeverExceedsSiliconLimits)
{
    auto device = unitOf(GetParam());
    Simulator sim(Time::msec(10));
    sim.add(device.get());
    device->acquireWakelock();
    device->startWorkload(CpuIntensiveWorkload{});
    double peak = 0.0;
    for (int i = 0; i < 60 * 100 * 8; ++i) { // 8 minutes
        sim.step();
        peak = std::max(peak,
                        device->thermalPackage().dieTemp().value());
    }
    // Governors must keep the die below hardware-shutdown territory.
    EXPECT_LT(peak, 100.0) << device->name();
}

TEST_P(ModelSweep, EnergyMeterMatchesPowerIntegral)
{
    auto device = unitOf(GetParam());
    Simulator sim(Time::msec(10));
    sim.add(device.get());
    device->acquireWakelock();
    device->startWorkload(CpuIntensiveWorkload{});

    double integral = 0.0;
    for (int i = 0; i < 100 * 30; ++i) { // 30 s
        sim.step();
        integral += device->lastPower().value() * 0.010;
    }
    EXPECT_NEAR(device->energyMeter().total().value(), integral,
                integral * 1e-6)
        << device->name();
}

TEST_P(ModelSweep, ThermalEquilibriumRespectsAmbient)
{
    auto device = unitOf(GetParam());
    Simulator sim(Time::msec(50));
    sim.add(device.get());
    device->setSuspendAllowed(true); // asleep: negligible power
    device->setAmbient(Celsius(31.0));
    sim.runFor(Time::minutes(60));
    EXPECT_NEAR(device->thermalPackage().dieTemp().value(), 31.0, 1.0)
        << device->name();
}

INSTANTIATE_TEST_SUITE_P(Catalog, ModelSweep,
                         ::testing::Values("SD-800", "SD-805", "SD-810",
                                           "SD-820", "SD-821"));

/**
 * Seed-sweep robustness: random corners and climates must never put
 * the experiment stack into a nonsensical state.
 */
class SeedSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SeedSweep, RandomScenarioKeepsInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const auto &socs = DeviceRegistry::builtin().studySocNames();
    std::string soc =
        socs[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(socs.size()) - 1))];

    UnitCorner corner;
    corner.id = "fuzz";
    corner.corner = rng.gaussian(0.0, 1.2);
    corner.leakResidual = rng.gaussian(0.0, 0.4);
    double ambient = rng.uniform(0.0, 45.0);

    auto device = makeUnitForSoc(soc, corner);

    ExperimentConfig cfg;
    cfg.mode = rng.uniform() < 0.5 ? WorkloadMode::Unconstrained
                                   : WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = DeviceRegistry::builtin().at(soc).fixedFrequency;
    cfg.iterations = 2;
    cfg.accubench.warmupDuration = Time::sec(45);
    cfg.accubench.workloadDuration = Time::sec(90);
    cfg.thermabox.target = Celsius(ambient);
    cfg.accubench.cooldownTarget = Celsius(ambient + 8.0);
    ExperimentResult r = runExperiment(*device, cfg);

    ASSERT_EQ(r.iterations.size(), 2u);
    for (const auto &it : r.iterations) {
        EXPECT_GT(it.score, 0.0) << soc;
        EXPECT_GT(it.workloadEnergy.value(), 0.0) << soc;
        EXPECT_TRUE(std::isfinite(it.workloadEnergy.value())) << soc;
        EXPECT_GE(it.peakWorkloadTemp.value(), ambient - 2.0) << soc;
        EXPECT_LT(it.peakWorkloadTemp.value(), 120.0) << soc;
    }
    EXPECT_EQ(device->wakelockCount(), 0);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SeedSweep, ::testing::Range(1, 13));

TEST(Determinism, FreshIdenticalDevicesProduceIdenticalResults)
{
    ExperimentConfig cfg;
    cfg.iterations = 2;
    cfg.accubench.warmupDuration = Time::sec(30);
    cfg.accubench.workloadDuration = Time::sec(60);

    double scores[2];
    double energies[2];
    for (int i = 0; i < 2; ++i) {
        Fleet fleet = fleetForSoc("SD-800");
        ExperimentResult r = runExperiment(*fleet[1], cfg);
        scores[i] = r.meanScore();
        energies[i] = r.meanWorkloadEnergy().value();
    }
    EXPECT_DOUBLE_EQ(scores[0], scores[1]);
    EXPECT_DOUBLE_EQ(energies[0], energies[1]);
}

TEST(Determinism, FleetUnitsHaveDistinctSilicon)
{
    Fleet fleet = fleetForSoc("SD-800");
    for (std::size_t a = 0; a < fleet.size(); ++a) {
        for (std::size_t b = a + 1; b < fleet.size(); ++b) {
            EXPECT_NE(fleet[a]->soc().die().params().leakFactor,
                      fleet[b]->soc().die().params().leakFactor);
        }
    }
}

TEST(Integration, LeakierSiblingCostsMoreEnergyAtFixedWork)
{
    // The central monotonicity of the paper, tested directly: same
    // model, same voltage table, only the die differs.
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = MegaHertz(1574);
    cfg.iterations = 2;

    auto frugal = makeUnitForSoc(
        "SD-800", UnitCorner{"a", -1.0, -0.2, 0.0, 2});
    auto leaky = makeUnitForSoc("SD-800", UnitCorner{"b", +1.0, +0.2, 0.0, 2});
    ExperimentResult fr = runExperiment(*frugal, cfg);
    ExperimentResult lr = runExperiment(*leaky, cfg);

    EXPECT_NEAR(fr.meanScore(), lr.meanScore(),
                fr.meanScore() * 0.02); // same work
    EXPECT_GT(lr.meanWorkloadEnergy().value(),
              fr.meanWorkloadEnergy().value() * 1.05); // more joules
}

TEST(Integration, HotterChamberLowersUnconstrainedScore)
{
    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"x", +1.0, +0.1, 0.0, 3});
    double scores[2];
    int idx = 0;
    for (double ambient : {15.0, 38.0}) {
        ExperimentConfig cfg;
        cfg.iterations = 2;
        cfg.thermabox.target = Celsius(ambient);
        cfg.accubench.cooldownTarget = Celsius(ambient + 8.0);
        scores[idx++] = runExperiment(*device, cfg).meanScore();
    }
    EXPECT_GT(scores[0], scores[1] * 1.03);
}

// -- Metamorphic physics sweeps --------------------------------------------
//
// The paper's monotone claims as ladders rather than pairs, each run
// under both thermal solvers: the fast solver must preserve the
// physics, not only approximate the stepped bytes.

class PhysicsSweep : public ::testing::TestWithParam<SolverKind>
{
  protected:
    /** One fixed-frequency experiment on a unit of the Nexus 5. */
    double
    fixedFrequencyEnergyJ(const UnitCorner &corner, double ambient_c) const
    {
        const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-800");
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::FixedFrequency;
        cfg.fixedFrequency = entry.fixedFrequency;
        cfg.iterations = 1;
        cfg.solver = GetParam();
        cfg.thermabox.target = Celsius(ambient_c);
        cfg.accubench.cooldownTarget = Celsius(ambient_c + 8.0);
        auto device = buildDevice(entry.spec, corner);
        return runExperiment(*device, cfg).meanWorkloadEnergy().value();
    }
};

TEST_P(PhysicsSweep, FixedFrequencyEnergyRisesWithLeakageCorner)
{
    // Same model, same unit id (so the same noise streams), same work;
    // only the die's residual leakage climbs (§IV).
    double prev = 0.0;
    for (double leak : {-0.8, -0.4, 0.0, 0.4, 0.8, 1.2}) {
        double energy =
            fixedFrequencyEnergyJ(UnitCorner{"ladder", 0.0, leak, 0.0},
                                  26.0);
        EXPECT_GT(energy, prev) << "leak residual " << leak;
        prev = energy;
    }
}

TEST_P(PhysicsSweep, FixedFrequencyEnergyRisesWithAmbient)
{
    // A hotter chamber leaves the die hotter through the same work, and
    // leakage grows with temperature (Fig 2).
    double prev = 0.0;
    for (double ambient : {12.0, 20.0, 28.0, 36.0}) {
        double energy = fixedFrequencyEnergyJ(
            UnitCorner{"ambient", 0.5, 0.1, 0.0}, ambient);
        EXPECT_GT(energy, prev) << "ambient " << ambient << " C";
        prev = energy;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, PhysicsSweep,
    ::testing::Values(SolverKind::Stepped, SolverKind::Fast),
    [](const ::testing::TestParamInfo<SolverKind> &param) {
        return std::string(solverKindName(param.param));
    });

} // namespace
} // namespace pvar
