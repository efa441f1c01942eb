/**
 * @file
 * Unit and property tests for the Die electrical model.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <iterator>
#include <ostream>

#include "silicon/die.hh"
#include "silicon/process_node.hh"

namespace pvar
{
namespace
{

Die
typicalDie()
{
    return Die(node28nmHPm(), DieParams{"typ", 1.0, 1.0, 0.0});
}

TEST(Die, RejectsNonPositiveFactors)
{
    EXPECT_DEATH(
        { Die d(node28nmHPm(), DieParams{"bad", 0.0, 1.0, 0.0}); }, "");
    EXPECT_DEATH(
        { Die d(node28nmHPm(), DieParams{"bad", 1.0, -1.0, 0.0}); }, "");
}

TEST(Die, FasterFactorMeansHigherFmax)
{
    Die slow(node28nmHPm(), DieParams{"s", 0.95, 1.0, 0.0});
    Die fast(node28nmHPm(), DieParams{"f", 1.10, 1.0, 0.0});
    EXPECT_GT(fast.fmaxAt(Volts(1.0)), slow.fmaxAt(Volts(1.0)));
    EXPECT_LT(fast.minVoltageFor(MegaHertz(2265)),
              slow.minVoltageFor(MegaHertz(2265)));
}

TEST(Die, VthOffsetShiftsThreshold)
{
    Die low(node28nmHPm(), DieParams{"l", 1.0, 1.0, -0.02});
    Die high(node28nmHPm(), DieParams{"h", 1.0, 1.0, +0.02});
    EXPECT_GT(low.fmaxAt(Volts(0.9)), high.fmaxAt(Volts(0.9)));
    EXPECT_DOUBLE_EQ(high.vThreshold().value(),
                     node28nmHPm().vThreshold.value() + 0.02);
}

TEST(Die, PassesAtIsConsistentWithFmax)
{
    Die d = typicalDie();
    MegaHertz fmax = d.fmaxAt(Volts(1.0));
    EXPECT_TRUE(d.passesAt(fmax * 0.99, Volts(1.0)));
    EXPECT_FALSE(d.passesAt(fmax * 1.01, Volts(1.0)));
}

TEST(Die, LeakageMonotonicInTemperature)
{
    Die d = typicalDie();
    double prev = 0.0;
    for (double t = 0.0; t <= 110.0; t += 5.0) {
        double i = d.leakageCurrent(Volts(1.0), Celsius(t)).value();
        EXPECT_GT(i, prev) << "at T=" << t;
        prev = i;
    }
}

TEST(Die, LeakageMonotonicInVoltage)
{
    Die d = typicalDie();
    double prev = 0.0;
    for (double v = 0.6; v <= 1.2; v += 0.05) {
        double i = d.leakageCurrent(Volts(v), Celsius(50)).value();
        EXPECT_GT(i, prev) << "at V=" << v;
        prev = i;
    }
}

TEST(Die, LeakageScalesWithFactorAndSize)
{
    ProcessNode node = node28nmHPm();
    Die base(node, DieParams{"b", 1.0, 1.0, 0.0});
    Die leaky(node, DieParams{"l", 1.0, 2.0, 0.0});
    double i_base = base.leakageCurrent(Volts(1.0), Celsius(60)).value();
    double i_leaky = leaky.leakageCurrent(Volts(1.0), Celsius(60)).value();
    EXPECT_NEAR(i_leaky / i_base, 2.0, 1e-9);

    double i_half =
        base.leakageCurrent(Volts(1.0), Celsius(60), 0.5).value();
    EXPECT_NEAR(i_half / i_base, 0.5, 1e-9);
}

TEST(Die, LeakageReferencePoint)
{
    // At (vNominal, tRef) a nominal die draws exactly leakRef.
    ProcessNode node = node28nmHPm();
    Die d(node, DieParams{"t", 1.0, 1.0, 0.0});
    EXPECT_NEAR(d.leakageCurrent(node.vNominal, node.tRef).value(),
                node.leakRef.value(), 1e-12);
}

TEST(Die, LeakageTemperatureEFold)
{
    ProcessNode node = node28nmHPm();
    Die d(node, DieParams{"t", 1.0, 1.0, 0.0});
    double i1 = d.leakageCurrent(node.vNominal, node.tRef).value();
    double i2 = d.leakageCurrent(node.vNominal,
                                 node.tRef + Celsius(node.leakTempSlope))
                    .value();
    EXPECT_NEAR(i2 / i1, std::exp(1.0), 1e-9);
}

TEST(Die, LeakageClampsExtremeInputs)
{
    Die d = typicalDie();
    double at_limit = d.leakageCurrent(Volts(1.0), Celsius(200)).value();
    double beyond = d.leakageCurrent(Volts(1.0), Celsius(5000)).value();
    EXPECT_DOUBLE_EQ(at_limit, beyond);
    EXPECT_TRUE(std::isfinite(beyond));
}

TEST(Die, DynamicPowerQuadraticInVoltage)
{
    Die d = typicalDie();
    double p1 = d.dynamicPower(Volts(0.5), MegaHertz(1000)).value();
    double p2 = d.dynamicPower(Volts(1.0), MegaHertz(1000)).value();
    EXPECT_NEAR(p2 / p1, 4.0, 1e-9);
}

TEST(Die, DynamicPowerLinearInFrequencyActivitySize)
{
    Die d = typicalDie();
    double base = d.dynamicPower(Volts(1.0), MegaHertz(1000)).value();
    EXPECT_NEAR(
        d.dynamicPower(Volts(1.0), MegaHertz(2000)).value() / base, 2.0,
        1e-9);
    EXPECT_NEAR(
        d.dynamicPower(Volts(1.0), MegaHertz(1000), 0.5).value() / base,
        0.5, 1e-9);
    EXPECT_NEAR(d.dynamicPower(Volts(1.0), MegaHertz(1000), 1.0, 2.0)
                        .value() /
                    base,
                2.0, 1e-9);
}

TEST(Die, LeakagePowerIsVTimesI)
{
    Die d = typicalDie();
    Volts v(0.95);
    Celsius t(55);
    EXPECT_NEAR(d.leakagePower(v, t).value(),
                v.value() * d.leakageCurrent(v, t).value(), 1e-12);
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** The leakage model written out in one expression, clamps included. */
double
closedFormLeakage(const Die &d, double v, double t, double size)
{
    const ProcessNode &n = d.node();
    double vc = std::clamp(v, 0.0, 2.0);
    double tc = std::clamp(t, -40.0, 200.0);
    double volt_term = std::exp((vc - n.vNominal.value()) / n.leakVoltSlope);
    double temp_term = std::exp((tc - n.tRef.value()) / n.leakTempSlope);
    return n.leakRef.value() * d.params().leakFactor * size * volt_term *
           temp_term;
}

/** Every leakage entry point against the closed form, bit for bit. */
void
expectClosedForm(const Die &d, double v, double t, double size)
{
    double want = closedFormLeakage(d, v, t, size);
    LeakageTerms terms{d.leakageVoltTerm(Volts(v)),
                       d.leakageTempTerm(Celsius(t))};
    EXPECT_EQ(bits(d.leakageCurrent(Volts(v), Celsius(t), size).value()),
              bits(want))
        << "V=" << v << " T=" << t << " size=" << size;
    EXPECT_EQ(bits(d.leakagePower(Volts(v), Celsius(t), size).value()),
              bits(v * want))
        << "V=" << v << " T=" << t << " size=" << size;
    EXPECT_EQ(bits(d.leakagePower(Volts(v), terms, size).value()),
              bits(v * want))
        << "V=" << v << " T=" << t << " size=" << size;
}

TEST(Die, LeakageMatchesClosedFormAtClampEdges)
{
    Die d(node20nmSoC(), DieParams{"edge", 1.07, 1.9, 0.01});
    for (double v : {-0.5, 0.0, 1e-9, 0.9, 2.0 - 1e-12, 2.0, 2.5}) {
        for (double t : {-90.0, -40.0, -39.999, 25.0, 199.999, 200.0,
                         5000.0}) {
            for (double size : {1.0, 0.4, 0.05 * 0.4})
                expectClosedForm(d, v, t, size);
        }
    }
    // Past each edge the result is the edge's, not merely close to it.
    EXPECT_EQ(bits(d.leakageVoltTerm(Volts(2.5))),
              bits(d.leakageVoltTerm(Volts(2.0))));
    EXPECT_EQ(bits(d.leakageVoltTerm(Volts(-0.5))),
              bits(d.leakageVoltTerm(Volts(0.0))));
    EXPECT_EQ(bits(d.leakageTempTerm(Celsius(-90.0))),
              bits(d.leakageTempTerm(Celsius(-40.0))));
    EXPECT_EQ(bits(d.leakageTempTerm(Celsius(5000.0))),
              bits(d.leakageTempTerm(Celsius(200.0))));
}

TEST(Die, LeakageMatchesClosedFormWhenInputsAlternate)
{
    // One die, queried at interleaved operating points the way
    // big.LITTLE clusters and successive segments query it: no answer
    // may depend on what was asked before.
    Die d(node14nmFinFET(), DieParams{"alt", 0.96, 0.7, -0.005});
    const double volts[] = {0.80, 1.05, 0.80, 0.80, 1.05, 0.62, 1.05};
    const double temps[] = {35.0, 35.0, 71.5, 35.0, 71.5, 71.5, 20.0};
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < std::size(volts); ++i)
            expectClosedForm(d, volts[i], temps[i], i % 2 ? 0.4 : 1.0);
    }
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

/** Property: the speed/leakage/power relations hold on every node. */
class DieNodeSweep : public ::testing::TestWithParam<NodeCase>
{
};

TEST_P(DieNodeSweep, CoupledSpeedAndLeakInvariants)
{
    ProcessNode node = GetParam().make();
    Die d(node, DieParams{"x", 1.0, 1.0, 0.0});

    // fmax at vMax must exceed fmax at vMin.
    EXPECT_GT(d.fmaxAt(node.vMax), d.fmaxAt(node.vMin));

    // Leakage at vMax/hot must exceed leakage at vMin/cold.
    EXPECT_GT(d.leakageCurrent(node.vMax, Celsius(90)).value(),
              d.leakageCurrent(node.vMin, Celsius(20)).value());

    // Dynamic power is positive at any in-range OPP.
    EXPECT_GT(d.dynamicPower(node.vNominal, MegaHertz(1000)).value(),
              0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Nodes, DieNodeSweep,
    ::testing::Values(NodeCase{"28nmHPm", &node28nmHPm},
                      NodeCase{"20nmSoC", &node20nmSoC},
                      NodeCase{"14nmFinFET", &node14nmFinFET}));

} // namespace
} // namespace pvar
