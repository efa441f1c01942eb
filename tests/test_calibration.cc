/**
 * @file
 * Calibration tests: the SD-800 study must land inside bands around
 * the paper's Table II numbers, and per-unit scores must repeat as
 * tightly as the methodology claims. The other SoCs' bands live in
 * the paper cases that run those studies (bench/pvar_paper.cc); see
 * DESIGN.md §4.
 *
 * Each study here runs the real protocol (3-minute warmups, 5-minute
 * workloads) but only 2 iterations per experiment for test-time
 * reasons; the bands are wide enough to absorb the difference from
 * the paper's 5 iterations.
 */

#include <gtest/gtest.h>

#include "accubench/protocol.hh"
#include "sim/logging.hh"

namespace pvar
{
namespace
{

class CalibrationTest : public ::testing::Test
{
  protected:
    static SocStudy
    study(const std::string &soc)
    {
        LogLevel old = setLogLevel(LogLevel::Quiet);
        StudyConfig cfg;
        cfg.iterations = 2;
        SocStudy s = runSocStudy(soc, cfg);
        setLogLevel(old);
        return s;
    }
};

TEST_F(CalibrationTest, Sd800MatchesPaperBands)
{
    SocStudy s = study("SD-800");
    // Paper: 14% performance, 19% energy.
    EXPECT_GE(s.perfVariationPercent, 8.0);
    EXPECT_LE(s.perfVariationPercent, 19.0);
    EXPECT_GE(s.energyVariationPercent, 13.0);
    EXPECT_LE(s.energyVariationPercent, 29.0);
    // Fixed-frequency performance spread stays tiny (paper: <= 1.3%).
    EXPECT_LE(s.fixedPerfSpreadPercent, 1.5);

    // The counterintuitive headline: bin-0, despite the highest
    // fused voltage, is fastest AND most energy-frugal.
    const UnitOutcome &bin0 = s.units.front();
    for (const auto &u : s.units) {
        EXPECT_GE(bin0.meanScore, u.meanScore * 0.999) << u.unitId;
        EXPECT_LE(bin0.meanFixedEnergyJ, u.meanFixedEnergyJ * 1.001)
            << u.unitId;
    }
    // And bin ordering is monotone in both axes.
    for (std::size_t i = 0; i + 1 < s.units.size(); ++i) {
        EXPECT_GE(s.units[i].meanScore, s.units[i + 1].meanScore);
        EXPECT_LE(s.units[i].meanFixedEnergyJ,
                  s.units[i + 1].meanFixedEnergyJ);
    }
}

TEST_F(CalibrationTest, RepeatabilityMatchesMethodologyClaim)
{
    // Paper: "average error of 1.1% RSD over roughly 300 iterations".
    // Per-unit score RSDs must be small.
    for (const char *soc : {"SD-800", "SD-821"}) {
        SocStudy s = study(soc);
        EXPECT_LE(s.meanScoreRsdPercent, 2.0) << soc;
    }
}

} // namespace
} // namespace pvar
