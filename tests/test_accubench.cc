/**
 * @file
 * Tests for the ACCUBENCH phase machine, run through runExperiment()
 * on both thermal solvers: the stepped reference and the fast path's
 * event-to-event cooldown polling.
 */

#include <gtest/gtest.h>

#include "accubench/experiment.hh"
#include "device/fleet.hh"
#include "sim/simulator.hh"

namespace pvar
{
namespace
{

constexpr SolverKind kSolvers[] = {SolverKind::Stepped, SolverKind::Fast};

ExperimentConfig
quickConfig(SolverKind solver)
{
    ExperimentConfig cfg;
    cfg.iterations = 1;
    cfg.solver = solver;
    cfg.supply = SupplyChoice::Battery;
    cfg.accubench.warmupDuration = Time::sec(30);
    cfg.accubench.workloadDuration = Time::sec(60);
    cfg.accubench.cooldownTarget = Celsius(34.0);
    cfg.accubench.cooldownPoll = Time::sec(5);
    cfg.accubench.cooldownTimeout = Time::minutes(20);
    return cfg;
}

std::unique_ptr<Device>
device()
{
    return makeUnitForSoc("SD-800", UnitCorner{"x", 0.0, 0.0, 0.0, 2});
}

/** The single iteration of a one-iteration experiment. */
IterationResult
runOnce(Device &d, const ExperimentConfig &cfg)
{
    ExperimentResult r = runExperiment(d, cfg);
    EXPECT_EQ(r.iterations.size(), 1u);
    return r.iterations.at(0);
}

TEST(Accubench, PhaseDurationsHonoured)
{
    for (SolverKind solver : kSolvers) {
        SCOPED_TRACE(solverKindName(solver));
        auto d = device();
        IterationResult r = runOnce(*d, quickConfig(solver));

        EXPECT_EQ(r.warmupTime, Time::sec(30));
        EXPECT_EQ(r.workloadTime, Time::sec(60));
        EXPECT_GT(r.cooldownTime, Time::zero());
        EXPECT_TRUE(r.cooldownReachedTarget);
    }
}

TEST(Accubench, ScoreAndEnergyPositive)
{
    for (SolverKind solver : kSolvers) {
        SCOPED_TRACE(solverKindName(solver));
        auto d = device();
        IterationResult r = runOnce(*d, quickConfig(solver));
        EXPECT_GT(r.score, 50.0); // ~3.5 it/s for 60 s
        EXPECT_GT(r.workloadEnergy.value(), 20.0);
        EXPECT_GT(r.totalEnergy.value(), r.workloadEnergy.value());
    }
}

TEST(Accubench, CooldownEndsAtOrBelowTarget)
{
    for (SolverKind solver : kSolvers) {
        SCOPED_TRACE(solverKindName(solver));
        auto d = device();
        ExperimentConfig cfg = quickConfig(solver);
        IterationResult r = runOnce(*d, cfg);
        EXPECT_LE(r.tempAtWorkloadStart.value(),
                  cfg.accubench.cooldownTarget.value() + 0.5);
    }
}

TEST(Accubench, DeviceSleepsDuringCooldown)
{
    auto d = device();
    Simulator sim(Time::msec(10));
    sim.add(d.get());

    // Warm the device first so cooldown takes a while.
    d->acquireWakelock();
    d->startWorkload(CpuIntensiveWorkload{});
    sim.runFor(Time::minutes(2));
    d->stopWorkload();
    d->releaseWakelock();
    d->setSuspendAllowed(true);
    sim.runFor(Time::sec(4)); // between polls, no wake window
    EXPECT_TRUE(d->suspended());
}

TEST(Accubench, PhaseChannelMarksAllPhases)
{
    for (SolverKind solver : kSolvers) {
        SCOPED_TRACE(solverKindName(solver));
        auto d = device();
        ExperimentResult r = runExperiment(*d, quickConfig(solver));
        ASSERT_TRUE(r.trace->hasChannel("phase"));
        auto values = r.trace->channel("phase").values();
        // Warmup, cooldown, workload, and the final idle marker.
        ASSERT_EQ(values.size(), 4u);
        EXPECT_DOUBLE_EQ(values[0],
                         static_cast<double>(AccubenchPhase::Warmup));
        EXPECT_DOUBLE_EQ(values[1],
                         static_cast<double>(AccubenchPhase::Cooldown));
        EXPECT_DOUBLE_EQ(values[2],
                         static_cast<double>(AccubenchPhase::Workload));
        EXPECT_DOUBLE_EQ(values[3],
                         static_cast<double>(AccubenchPhase::Idle));
    }
}

TEST(Accubench, WakelockBalanced)
{
    for (SolverKind solver : kSolvers) {
        SCOPED_TRACE(solverKindName(solver));
        auto d = device();
        runOnce(*d, quickConfig(solver));
        EXPECT_EQ(d->wakelockCount(), 0);
    }
}

TEST(Accubench, CooldownTimeoutIsReported)
{
    for (SolverKind solver : kSolvers) {
        SCOPED_TRACE(solverKindName(solver));
        auto d = device();
        ExperimentConfig cfg = quickConfig(solver);
        // Below the chamber's 26 C: unreachable.
        cfg.accubench.cooldownTarget = Celsius(5.0);
        cfg.accubench.cooldownTimeout = Time::sec(30);
        IterationResult r = runOnce(*d, cfg);
        EXPECT_FALSE(r.cooldownReachedTarget);
        EXPECT_GE(r.cooldownTime, Time::sec(30));
        // The workload still ran and scored.
        EXPECT_GT(r.score, 0.0);
    }
}

TEST(Accubench, WarmupNormalizesBackToBackIterations)
{
    // The methodology claim: after the first iteration, subsequent
    // scores agree tightly even though the device starts warm.
    for (SolverKind solver : kSolvers) {
        SCOPED_TRACE(solverKindName(solver));
        auto d = makeUnitForSoc("SD-800",
                                UnitCorner{"leaky", 1.2, 0.2, 0.0, 3});
        ExperimentConfig cfg; // paper defaults: 3 min, 5 min, 32 C
        cfg.iterations = 3;
        cfg.solver = solver;
        cfg.supply = SupplyChoice::Battery;
        ExperimentResult r = runExperiment(*d, cfg);
        ASSERT_EQ(r.iterations.size(), 3u);

        // Iterations 2 and 3 agree within 2%.
        EXPECT_NEAR(r.iterations[2].score / r.iterations[1].score, 1.0,
                    0.02);
    }
}

} // namespace
} // namespace pvar
