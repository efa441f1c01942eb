/**
 * @file
 * Tests for the ACCUBENCH phase machine.
 */

#include <gtest/gtest.h>

#include "accubench/accubench.hh"
#include "device/fleet.hh"
#include "sim/simulator.hh"

namespace pvar
{
namespace
{

AccubenchConfig
quickConfig()
{
    AccubenchConfig cfg;
    cfg.warmupDuration = Time::sec(30);
    cfg.workloadDuration = Time::sec(60);
    cfg.cooldownTarget = Celsius(34.0);
    cfg.cooldownPoll = Time::sec(5);
    cfg.cooldownTimeout = Time::minutes(20);
    return cfg;
}

std::unique_ptr<Device>
device()
{
    return makeUnitForSoc("SD-800", UnitCorner{"x", 0.0, 0.0, 0.0, 2});
}

TEST(Accubench, PhaseDurationsHonoured)
{
    auto d = device();
    Simulator sim(Time::msec(10));
    sim.add(d.get());

    AccubenchConfig cfg = quickConfig();
    IterationResult r = runAccubenchIteration(sim, *d, cfg);

    EXPECT_EQ(r.warmupTime, Time::sec(30));
    EXPECT_EQ(r.workloadTime, Time::sec(60));
    EXPECT_GT(r.cooldownTime, Time::zero());
    EXPECT_TRUE(r.cooldownReachedTarget);
}

TEST(Accubench, ScoreAndEnergyPositive)
{
    auto d = device();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    IterationResult r = runAccubenchIteration(sim, *d, quickConfig());
    EXPECT_GT(r.score, 50.0); // ~3.5 it/s for 60 s
    EXPECT_GT(r.workloadEnergy.value(), 20.0);
    EXPECT_GT(r.totalEnergy.value(), r.workloadEnergy.value());
}

TEST(Accubench, CooldownEndsAtOrBelowTarget)
{
    auto d = device();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    AccubenchConfig cfg = quickConfig();
    IterationResult r = runAccubenchIteration(sim, *d, cfg);
    EXPECT_LE(r.tempAtWorkloadStart.value(),
              cfg.cooldownTarget.value() + 0.5);
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
    auto d = device();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    Trace trace;
    d->attachTrace(&trace);
    IterationResult r = runAccubenchIteration(sim, *d, quickConfig(),
                                              &trace);
    (void)r;
    ASSERT_TRUE(trace.hasChannel("phase"));
    auto values = trace.channel("phase").values();
    // Warmup, cooldown, workload, and the final idle marker.
    EXPECT_EQ(values.size(), 4u);
    EXPECT_DOUBLE_EQ(values[0],
                     static_cast<double>(AccubenchPhase::Warmup));
    EXPECT_DOUBLE_EQ(values[1],
                     static_cast<double>(AccubenchPhase::Cooldown));
    EXPECT_DOUBLE_EQ(values[2],
                     static_cast<double>(AccubenchPhase::Workload));
    EXPECT_DOUBLE_EQ(values[3],
                     static_cast<double>(AccubenchPhase::Idle));
}

TEST(Accubench, WakelockBalanced)
{
    auto d = device();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    runAccubenchIteration(sim, *d, quickConfig());
    EXPECT_EQ(d->wakelockCount(), 0);
}

TEST(Accubench, CooldownTimeoutIsReported)
{
    auto d = device();
    Simulator sim(Time::msec(10));
    sim.add(d.get());
    AccubenchConfig cfg = quickConfig();
    cfg.cooldownTarget = Celsius(5.0); // below ambient: unreachable
    cfg.cooldownTimeout = Time::sec(30);
    IterationResult r = runAccubenchIteration(sim, *d, cfg);
    EXPECT_FALSE(r.cooldownReachedTarget);
    EXPECT_GE(r.cooldownTime, Time::sec(30));
    // The workload still ran and scored.
    EXPECT_GT(r.score, 0.0);
}

TEST(Accubench, WarmupNormalizesBackToBackIterations)
{
    // The methodology claim: after the first iteration, subsequent
    // scores agree tightly even though the device starts warm.
    auto d = makeUnitForSoc("SD-800", UnitCorner{"leaky", 1.2, 0.2, 0.0, 3});
    Simulator sim(Time::msec(10));
    sim.add(d.get());

    AccubenchConfig cfg;
    cfg.warmupDuration = Time::minutes(3);
    cfg.workloadDuration = Time::minutes(5);
    cfg.cooldownTarget = Celsius(32.0);

    std::vector<double> scores;
    for (int i = 0; i < 3; ++i)
        scores.push_back(runAccubenchIteration(sim, *d, cfg).score);

    // Iterations 2 and 3 agree within 2%.
    EXPECT_NEAR(scores[2] / scores[1], 1.0, 0.02);
}

} // namespace
} // namespace pvar
