/**
 * @file
 * Tests for phase-window extraction and the crowd-study simulator.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "sampling/crowd.hh"
#include "accubench/experiment.hh"
#include "sampling/lower_bound.hh"
#include "accubench/phase_windows.hh"
#include "accubench/throttle_analysis.hh"
#include "device/fleet.hh"

namespace pvar
{
namespace
{

TEST(PhaseWindows, EmptyTraceYieldsNothing)
{
    Trace trace;
    EXPECT_TRUE(phaseWindows(trace).empty());
    EXPECT_FALSE(
        phaseWindow(trace, AccubenchPhase::Cooldown, 0).has_value());
}

TEST(PhaseWindows, DecodesMarkerStream)
{
    Trace trace;
    auto mark = [&](double t, AccubenchPhase p) {
        trace.record("phase", Time::sec(t), static_cast<double>(p));
    };
    mark(0, AccubenchPhase::Warmup);
    mark(180, AccubenchPhase::Cooldown);
    mark(300, AccubenchPhase::Workload);
    mark(600, AccubenchPhase::Idle);

    auto windows = phaseWindows(trace);
    ASSERT_EQ(windows.size(), 4u);
    EXPECT_EQ(windows[0].phase, AccubenchPhase::Warmup);
    EXPECT_EQ(windows[0].begin, Time::sec(0));
    EXPECT_EQ(windows[0].end, Time::sec(180));
    EXPECT_EQ(windows[1].phase, AccubenchPhase::Cooldown);
    EXPECT_EQ(windows[1].duration(), Time::sec(120));
    EXPECT_EQ(windows[2].end, Time::sec(600));
}

TEST(PhaseWindows, OccurrenceSelection)
{
    Trace trace;
    auto mark = [&](double t, AccubenchPhase p) {
        trace.record("phase", Time::sec(t), static_cast<double>(p));
    };
    // Two full iterations.
    mark(0, AccubenchPhase::Warmup);
    mark(10, AccubenchPhase::Cooldown);
    mark(20, AccubenchPhase::Workload);
    mark(30, AccubenchPhase::Warmup);
    mark(40, AccubenchPhase::Cooldown);
    mark(50, AccubenchPhase::Workload);
    mark(60, AccubenchPhase::Idle);

    auto second = phaseWindow(trace, AccubenchPhase::Cooldown, 1);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->begin, Time::sec(40));
    EXPECT_EQ(second->end, Time::sec(50));
    EXPECT_FALSE(
        phaseWindow(trace, AccubenchPhase::Cooldown, 2).has_value());
}

TEST(PhaseWindows, MatchesRealExperimentStructure)
{
    auto device = makeUnitForSoc("SD-800", UnitCorner{"pw", 0, 0, 0, 2});
    ExperimentConfig cfg;
    cfg.iterations = 2;
    cfg.accubench.warmupDuration = Time::sec(20);
    cfg.accubench.workloadDuration = Time::sec(30);
    ExperimentResult r = runExperiment(*device, cfg);

    auto windows = phaseWindows(*r.trace);
    // 2 iterations x (warmup, cooldown, workload, idle marker).
    ASSERT_EQ(windows.size(), 8u);
    auto w0 = phaseWindow(*r.trace, AccubenchPhase::Workload, 0);
    ASSERT_TRUE(w0.has_value());
    EXPECT_NEAR(w0->duration().toSec(), 30.0, 0.5);
    auto c1 = phaseWindow(*r.trace, AccubenchPhase::Cooldown, 1);
    ASSERT_TRUE(c1.has_value());
    EXPECT_NEAR(c1->duration().toSec(),
                r.iterations[1].cooldownTime.toSec(), 1.0);
}

CrowdConfig
quickCrowd()
{
    CrowdConfig cfg;
    cfg.socName = "SD-821";
    cfg.units = 4;
    cfg.seed = 99;
    cfg.iterations = 2;
    cfg.accubench.warmupDuration = Time::minutes(2);
    cfg.accubench.workloadDuration = Time::minutes(3);
    return cfg;
}

TEST(Crowd, ProducesOneReportPerUnit)
{
    CrowdResult r = simulateCrowd(quickCrowd());
    ASSERT_EQ(r.outcomes.size(), 4u);
    for (const auto &o : r.outcomes) {
        EXPECT_GT(o.report.score, 0.0);
        EXPECT_EQ(o.report.model, "Google Pixel");
        EXPECT_GT(o.leakFactor, 0.0);
    }
    EXPECT_EQ(r.reports().size(), 4u);
}

TEST(Crowd, AmbientEstimatesTrackTruth)
{
    CrowdResult r = simulateCrowd(quickCrowd());
    int valid = 0;
    for (const auto &o : r.outcomes) {
        if (!o.report.ambientValid)
            continue;
        ++valid;
        EXPECT_NEAR(o.report.estimatedAmbientC, o.trueAmbientC, 5.0)
            << o.report.unitId;
    }
    EXPECT_GE(valid, 3);
}

TEST(Crowd, DeterministicForSeed)
{
    CrowdResult a = simulateCrowd(quickCrowd());
    CrowdResult b = simulateCrowd(quickCrowd());
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.outcomes[i].report.score,
                         b.outcomes[i].report.score);
        EXPECT_DOUBLE_EQ(a.outcomes[i].trueAmbientC,
                         b.outcomes[i].trueAmbientC);
    }
}

TEST(Crowd, SeedsChangePopulation)
{
    CrowdConfig cfg = quickCrowd();
    CrowdResult a = simulateCrowd(cfg);
    cfg.seed = 100;
    CrowdResult b = simulateCrowd(cfg);
    EXPECT_NE(a.outcomes[0].report.score, b.outcomes[0].report.score);
}

TEST(Crowd, ValidatesConfig)
{
    CrowdConfig cfg = quickCrowd();
    cfg.units = 0;
    EXPECT_DEATH(simulateCrowd(cfg), "");
    cfg = quickCrowd();
    cfg.iterations = 1;
    EXPECT_DEATH(simulateCrowd(cfg), "");
}

TEST(Crowd, ReportsFeedRanking)
{
    CrowdResult crowd = simulateCrowd(quickCrowd());
    RankingConfig rcfg;
    rcfg.ambientLoC = -10.0;
    rcfg.ambientHiC = 60.0; // accept everyone with a valid estimate
    auto rankings = rankDevices(crowd.reports(), rcfg);
    ASSERT_EQ(rankings.size(), 1u);
    EXPECT_GE(rankings[0].ranked.size(), 3u);
    // Ranks are contiguous from 1.
    for (std::size_t i = 0; i < rankings[0].ranked.size(); ++i)
        EXPECT_EQ(rankings[0].ranked[i].rank, static_cast<int>(i) + 1);
}

Trace
syntheticThrottleTrace()
{
    Trace trace;
    // 10 s at 2265 MHz hot, 10 s at 1574 MHz warm, 5 s suspended,
    // then 5 s at 2265 MHz cool. Samples every second.
    auto put = [&](double t, double f, double temp) {
        trace.record("freq_cpu", Time::sec(t), f);
        trace.record("die_temp", Time::sec(t), temp);
    };
    for (int t = 0; t < 10; ++t)
        put(t, 2265, 80);
    for (int t = 10; t < 20; ++t)
        put(t, 1574, 72);
    for (int t = 20; t < 25; ++t)
        put(t, 0, 50);
    for (int t = 25; t <= 30; ++t)
        put(t, 2265, 45);
    return trace;
}

TEST(ThrottleAnalysis, ComputesAwakeMetrics)
{
    ThrottleAnalysisConfig cfg;
    cfg.topFreqMhz = 2265;
    cfg.hotThresholdC = 70.0;
    ThrottleAnalysis a =
        analyzeThrottling(syntheticThrottleTrace(), cfg);

    // Awake spans: 10 s @2265 + 10 s @1574 + 5 s @2265 = 25 s.
    EXPECT_NEAR(a.fractionCapped, 10.0 / 25.0, 0.02);
    EXPECT_NEAR(a.fractionHot, 20.0 / 25.0, 0.02);
    // Mean over awake samples (sample-weighted).
    EXPECT_GT(a.meanFreqMhz, 1574.0);
    EXPECT_LT(a.meanFreqMhz, 2265.0);
    // Changes: 2265->1574 once; the suspend gap breaks the streak, so
    // the wake at 2265 does not count as a change.
    EXPECT_EQ(a.freqChanges, 1);
}

TEST(ThrottleAnalysis, HistogramsCoverAwakeSamples)
{
    ThrottleAnalysisConfig cfg;
    cfg.freqLoMhz = 1000;
    cfg.freqHiMhz = 2400;
    ThrottleAnalysis a =
        analyzeThrottling(syntheticThrottleTrace(), cfg);
    // 25 awake one-second samples (the last sample has no hold span).
    EXPECT_EQ(a.freqHist.total(), 25u);
    EXPECT_EQ(a.tempHist.total(), 25u);
}

TEST(ThrottleAnalysis, MissingChannelIsFatal)
{
    Trace trace;
    trace.record("freq_cpu", Time::zero(), 1000);
    ThrottleAnalysisConfig cfg;
    EXPECT_DEATH((void)analyzeThrottling(trace, cfg), "");
}

TEST(ThrottleAnalysis, RealExperimentProducesConsistentMetrics)
{
    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"ta", +1.25, +0.10, 0.0, 3});
    ExperimentConfig cfg;
    cfg.iterations = 1;
    ExperimentResult r = runExperiment(*device, cfg);

    ThrottleAnalysisConfig ta;
    ta.topFreqMhz = 2265;
    ThrottleAnalysis a = analyzeThrottling(*r.trace, ta);
    EXPECT_GT(a.meanFreqMhz, 500.0);
    EXPECT_LE(a.meanFreqMhz, 2265.0);
    EXPECT_GE(a.fractionCapped, 0.0);
    EXPECT_LE(a.fractionCapped, 1.0);
    EXPECT_GT(a.freqHist.total(), 100u);
}

LowerBoundConfig
quickLowerBound()
{
    LowerBoundConfig cfg;
    cfg.socName = "SD-821";
    cfg.sampleSizes = {2, 4};
    cfg.replicates = 2;
    cfg.seed = 5;
    cfg.accubench.warmupDuration = Time::sec(30);
    cfg.accubench.workloadDuration = Time::sec(60);
    return cfg;
}

TEST(LowerBound, ProducesOnePointPerSampleSize)
{
    auto points = sampleSizeStudy(quickLowerBound());
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].sampleSize, 2);
    EXPECT_EQ(points[1].sampleSize, 4);
    for (const auto &p : points) {
        EXPECT_GE(p.meanSpreadPercent, 0.0);
        EXPECT_LE(p.minSpreadPercent, p.meanSpreadPercent);
        EXPECT_GE(p.maxSpreadPercent, p.meanSpreadPercent);
    }
}

TEST(LowerBound, LargerFleetsSeeAtLeastAsMuchSpread)
{
    LowerBoundConfig cfg = quickLowerBound();
    cfg.replicates = 3;
    auto points = sampleSizeStudy(cfg);
    EXPECT_GE(points[1].meanSpreadPercent,
              points[0].meanSpreadPercent * 0.9);
}

TEST(LowerBound, Deterministic)
{
    auto a = sampleSizeStudy(quickLowerBound());
    auto b = sampleSizeStudy(quickLowerBound());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i].meanSpreadPercent,
                         b[i].meanSpreadPercent);
}

TEST(LowerBound, ValidatesConfig)
{
    LowerBoundConfig cfg = quickLowerBound();
    cfg.sampleSizes = {1};
    EXPECT_DEATH(sampleSizeStudy(cfg), "");
    cfg = quickLowerBound();
    cfg.replicates = 0;
    EXPECT_DEATH(sampleSizeStudy(cfg), "");
}

} // namespace
} // namespace pvar
