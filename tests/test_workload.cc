/**
 * @file
 * Tests for the workload engine.
 */

#include <gtest/gtest.h>

#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"
#include "soc/soc.hh"
#include "workload/engine.hh"

namespace pvar
{
namespace
{

SocParams
simpleSoc()
{
    ClusterParams c;
    c.name = "cpu";
    c.coreType = CoreType{"core", 1.0, 2.0e9};
    c.coreCount = 2;
    c.table = VfTable({{MegaHertz(1000), Volts(0.9)},
                       {MegaHertz(2000), Volts(1.0)}});
    SocParams sp;
    sp.clusters = {c};
    return sp;
}

Die
typicalDie()
{
    VariationModel m(node28nmHPm());
    return m.dieAtCorner(0, 0, 0, "typ");
}

TEST(WorkloadEngine, AccruesIterationsAtWorkRate)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    engine.start(CpuIntensiveWorkload{});

    // 2 cores * 2e9 Hz / 2e9 cyc = 2 iterations per second.
    for (int i = 0; i < 100; ++i)
        engine.tick(Time::msec(100));
    EXPECT_NEAR(engine.iterations(), 20.0, 1e-9);
}

TEST(WorkloadEngine, StopFreezesCountAndIdlesClusters)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    engine.start(CpuIntensiveWorkload{});
    engine.tick(Time::sec(1));
    engine.stop();
    double before = engine.iterations();
    engine.tick(Time::sec(1));
    EXPECT_DOUBLE_EQ(engine.iterations(), before);
    EXPECT_DOUBLE_EQ(soc.cluster(0).utilization(), 0.0);
}

TEST(WorkloadEngine, PartialUtilizationScales)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    CpuIntensiveWorkload w;
    w.utilization = 0.5;
    engine.start(w);
    engine.tick(Time::sec(10));
    EXPECT_NEAR(engine.iterations(), 10.0, 1e-9);
}

TEST(WorkloadEngine, PerClusterAccounting)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    engine.start(CpuIntensiveWorkload{});
    engine.tick(Time::sec(5));
    ASSERT_EQ(engine.clusterIterations().size(), 1u);
    EXPECT_NEAR(engine.clusterIterations()[0], engine.iterations(),
                1e-12);
}

TEST(WorkloadEngine, ResetZeroes)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    engine.start(CpuIntensiveWorkload{});
    engine.tick(Time::sec(1));
    engine.resetIterations();
    EXPECT_DOUBLE_EQ(engine.iterations(), 0.0);
}

TEST(WorkloadEngine, BackgroundStealReducesIterationsOnly)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    engine.start(CpuIntensiveWorkload{});
    engine.setBackgroundSteal(0.25);
    engine.tick(Time::sec(10));
    // 2 iter/s * 10 s * (1 - 0.25).
    EXPECT_NEAR(engine.iterations(), 15.0, 1e-9);
    // Power-side utilization stays saturated: the cores are busy.
    EXPECT_DOUBLE_EQ(soc.cluster(0).utilization(), 1.0);
}

TEST(WorkloadEngine, StealValidation)
{
    Soc soc(simpleSoc(), typicalDie());
    WorkloadEngine engine(&soc);
    EXPECT_DEATH(engine.setBackgroundSteal(-0.1), "");
    EXPECT_DEATH(engine.setBackgroundSteal(1.0), "");
    engine.setBackgroundSteal(0.0);
    EXPECT_DOUBLE_EQ(engine.backgroundSteal(), 0.0);
}

TEST(WorkloadEngine, BurstyWorkloadHonoursDutyCycle)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    CpuIntensiveWorkload bursty;
    bursty.burstPeriod = Time::sec(10);
    bursty.burstDuty = 0.4;
    engine.start(bursty);

    // 100 s of 10 ms ticks: exactly 10 cycles of 4 s busy each at
    // 2 iter/s -> 80 iterations.
    for (int i = 0; i < 10000; ++i)
        engine.tick(Time::msec(10));
    EXPECT_NEAR(engine.iterations(), 80.0, 1.0);
}

TEST(WorkloadEngine, BurstyIdleWindowsDropUtilization)
{
    Soc soc(simpleSoc(), typicalDie());
    soc.toHighestOpp();
    WorkloadEngine engine(&soc);
    CpuIntensiveWorkload bursty;
    bursty.burstPeriod = Time::sec(10);
    bursty.burstDuty = 0.3;
    engine.start(bursty);

    engine.tick(Time::sec(1)); // inside the busy window
    EXPECT_DOUBLE_EQ(soc.cluster(0).utilization(), 1.0);
    engine.tick(Time::sec(4)); // now 5 s in: past the 3 s busy window
    EXPECT_DOUBLE_EQ(soc.cluster(0).utilization(), 0.0);
}

TEST(WorkloadEngine, SustainedIsDefault)
{
    CpuIntensiveWorkload w;
    EXPECT_EQ(w.burstPeriod, Time::zero());
}

TEST(WorkloadEngine, FrequencyChangeChangesRate)
{
    Soc soc(simpleSoc(), typicalDie());
    WorkloadEngine engine(&soc);
    engine.start(CpuIntensiveWorkload{});
    soc.cluster(0).setOppIndex(0); // 1000 MHz -> 1 iter/s
    engine.tick(Time::sec(10));
    EXPECT_NEAR(engine.iterations(), 10.0, 1e-9);
    soc.cluster(0).setOppIndex(1); // 2000 MHz -> 2 iter/s
    engine.tick(Time::sec(10));
    EXPECT_NEAR(engine.iterations(), 30.0, 1e-9);
}

} // namespace
} // namespace pvar
