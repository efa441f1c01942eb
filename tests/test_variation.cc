/**
 * @file
 * Tests for die sampling: the correlation structure that drives every
 * result in the paper (fast dies leak more).
 */

#include <cmath>
#include <gtest/gtest.h>
#include <ostream>

#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"
#include "stats/fit.hh"

namespace pvar
{
namespace
{

TEST(VariationModel, Deterministic)
{
    VariationModel m(node28nmHPm());
    Rng a(42), b(42);
    DieParams p1 = m.sampleParams(a, "x");
    DieParams p2 = m.sampleParams(b, "x");
    EXPECT_DOUBLE_EQ(p1.speedFactor, p2.speedFactor);
    EXPECT_DOUBLE_EQ(p1.leakFactor, p2.leakFactor);
    EXPECT_DOUBLE_EQ(p1.vthOffset, p2.vthOffset);
}

TEST(VariationModel, LotNamesAndSize)
{
    VariationModel m(node28nmHPm());
    Rng rng(1);
    auto lot = m.sampleLot(rng, 5, "chip");
    ASSERT_EQ(lot.size(), 5u);
    EXPECT_EQ(lot[0].id(), "chip-0");
    EXPECT_EQ(lot[4].id(), "chip-4");
}

TEST(VariationModel, FactorsArePositive)
{
    VariationModel m(node20nmSoC());
    Rng rng(3);
    for (const auto &die : m.sampleLot(rng, 500)) {
        EXPECT_GT(die.params().speedFactor, 0.0);
        EXPECT_GT(die.params().leakFactor, 0.0);
    }
}

TEST(VariationModel, SpeedLeakageCorrelationIsPositive)
{
    // The core physical fact of the paper's §II: fast transistors
    // (short channels) leak more. log(speed) and log(leak) must be
    // strongly positively correlated.
    VariationModel m(node28nmHPm());
    Rng rng(7);
    auto lot = m.sampleLot(rng, 2000);

    std::vector<double> log_speed, log_leak;
    for (const auto &die : lot) {
        log_speed.push_back(std::log(die.params().speedFactor));
        log_leak.push_back(std::log(die.params().leakFactor));
    }
    LinearFit f = fitLinear(log_speed, log_leak);
    EXPECT_GT(f.slope, 0.0);
    EXPECT_GT(f.r2, 0.8) << "correlation should dominate the residual";
}

TEST(VariationModel, LogSpeedSigmaMatchesNode)
{
    ProcessNode node = node28nmHPm();
    VariationModel m(node);
    Rng rng(11);
    auto lot = m.sampleLot(rng, 4000);

    double sum = 0.0, sq = 0.0;
    for (const auto &die : lot) {
        double ls = std::log(die.params().speedFactor);
        sum += ls;
        sq += ls * ls;
    }
    double n = static_cast<double>(lot.size());
    double mean = sum / n;
    double sigma = std::sqrt(sq / n - mean * mean);
    EXPECT_NEAR(mean, 0.0, 0.005);
    EXPECT_NEAR(sigma, node.sigmaSpeed, 0.15 * node.sigmaSpeed);
}

TEST(VariationModel, DieAtCornerIsExact)
{
    ProcessNode node = node28nmHPm();
    VariationModel m(node);
    Die d = m.dieAtCorner(1.0, 0.5, 0.01, "corner");
    EXPECT_NEAR(d.params().speedFactor, std::exp(node.sigmaSpeed), 1e-12);
    EXPECT_NEAR(d.params().leakFactor,
                std::exp(node.corrLeak + 0.5 * node.sigmaLeakResidual),
                1e-12);
    EXPECT_DOUBLE_EQ(d.params().vthOffset, 0.01);
    EXPECT_EQ(d.id(), "corner");
}

TEST(VariationModel, TypicalCornerIsNominal)
{
    VariationModel m(node14nmFinFET());
    Die d = m.dieAtCorner(0.0, 0.0, 0.0, "typ");
    EXPECT_DOUBLE_EQ(d.params().speedFactor, 1.0);
    EXPECT_DOUBLE_EQ(d.params().leakFactor, 1.0);
}

struct NodeCase
{
    const char *tag;
    ProcessNode (*make)();
};

// Print the tag, not the function address, so that the test names are
// the same in every build.
void
PrintTo(const NodeCase &c, std::ostream *os)
{
    *os << c.tag;
}

/** Property: the leakage spread dwarfs the speed spread on all nodes. */
class VariationNodeSweep : public ::testing::TestWithParam<NodeCase>
{
};

TEST_P(VariationNodeSweep, LeakSpreadExceedsSpeedSpread)
{
    VariationModel m(GetParam().make());
    Rng rng(13);
    auto lot = m.sampleLot(rng, 1000);

    double min_s = 1e9, max_s = 0, min_l = 1e9, max_l = 0;
    for (const auto &die : lot) {
        min_s = std::min(min_s, die.params().speedFactor);
        max_s = std::max(max_s, die.params().speedFactor);
        min_l = std::min(min_l, die.params().leakFactor);
        max_l = std::max(max_l, die.params().leakFactor);
    }
    // This asymmetry is why voltage binning cannot fully level the
    // field: the voltage knob tracks speed, but leakage moves much
    // further than speed does.
    EXPECT_GT(max_l / min_l, max_s / min_s);
}

INSTANTIATE_TEST_SUITE_P(
    Nodes, VariationNodeSweep,
    ::testing::Values(NodeCase{"28nmHPm", &node28nmHPm},
                      NodeCase{"20nmSoC", &node20nmSoC},
                      NodeCase{"14nmFinFET", &node14nmFinFET}));

} // namespace
} // namespace pvar
