/**
 * @file
 * Tests for CPU clusters and SoC power composition.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "device/device.hh"
#include "device/registry.hh"
#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"
#include "sim/bytes.hh"
#include "soc/rbcpr.hh"
#include "soc/soc.hh"

namespace pvar
{
namespace
{

VfTable
smallTable()
{
    return VfTable({
        {MegaHertz(300), Volts(0.80)},
        {MegaHertz(960), Volts(0.865)},
        {MegaHertz(1574), Volts(0.965)},
        {MegaHertz(2265), Volts(1.10)},
    });
}

ClusterParams
quadParams()
{
    ClusterParams p;
    p.name = "cpu";
    p.coreType = CoreType{"krait", 1.0, 2.6e9};
    p.coreCount = 4;
    p.table = smallTable();
    return p;
}

Die
typicalDie()
{
    VariationModel m(node28nmHPm());
    return m.dieAtCorner(0, 0, 0, "typ");
}

TEST(Cluster, OppSelectionClamped)
{
    CpuCluster c(quadParams());
    c.setOppIndex(2);
    EXPECT_DOUBLE_EQ(c.frequency().value(), 1574);
    EXPECT_DOUBLE_EQ(c.fusedVoltage().value(), 0.965);
    c.setOppIndex(99);
    EXPECT_DOUBLE_EQ(c.frequency().value(), 2265);
}

TEST(Cluster, VoltageRecoupLowersAppliedVoltage)
{
    CpuCluster c(quadParams());
    c.setOppIndex(3);
    c.setVoltageRecoup(Volts(0.030));
    EXPECT_NEAR(c.appliedVoltage().value(), 1.07, 1e-12);
}

TEST(Cluster, OnlineCoreClamping)
{
    CpuCluster c(quadParams());
    c.setOnlineCores(2);
    EXPECT_EQ(c.onlineCores(), 2);
    c.setOnlineCores(0); // at least one core stays online
    EXPECT_EQ(c.onlineCores(), 1);
    c.setOnlineCores(99);
    EXPECT_EQ(c.onlineCores(), 4);
}

TEST(Cluster, UtilizationClamped)
{
    CpuCluster c(quadParams());
    c.setUtilization(1.7);
    EXPECT_DOUBLE_EQ(c.utilization(), 1.0);
    c.setUtilization(-0.5);
    EXPECT_DOUBLE_EQ(c.utilization(), 0.0);
}

TEST(Cluster, WorkRateMath)
{
    CpuCluster c(quadParams());
    c.setOppIndex(3); // 2265 MHz
    c.setUtilization(1.0);
    // 4 cores * 2.265e9 Hz / 2.6e9 cycles/iter.
    EXPECT_NEAR(c.workRate(), 4.0 * 2.265e9 / 2.6e9, 1e-9);
    c.setOnlineCores(3);
    EXPECT_NEAR(c.workRate(), 3.0 * 2.265e9 / 2.6e9, 1e-9);
    c.setUtilization(0.5);
    EXPECT_NEAR(c.workRate(), 1.5 * 2.265e9 / 2.6e9, 1e-9);
}

TEST(Cluster, PowerIncreasesWithLoadFreqTemp)
{
    CpuCluster c(quadParams());
    Die die = typicalDie();

    c.setOppIndex(1);
    c.setUtilization(0.0);
    double idle = c.power(die, Celsius(40)).value();
    c.setUtilization(1.0);
    double busy = c.power(die, Celsius(40)).value();
    EXPECT_GT(busy, idle * 3.0);

    c.setOppIndex(3);
    double busy_fast = c.power(die, Celsius(40)).value();
    EXPECT_GT(busy_fast, busy);

    double busy_hot = c.power(die, Celsius(90)).value();
    EXPECT_GT(busy_hot, busy_fast);
}

TEST(Cluster, OfflineCoresLeakLittle)
{
    CpuCluster c(quadParams());
    Die die = typicalDie();
    c.setOppIndex(3);
    c.setUtilization(1.0);
    double all4 = c.power(die, Celsius(80)).value();
    c.setOnlineCores(3);
    double just3 = c.power(die, Celsius(80)).value();
    // Dropping one of four busy cores sheds roughly a quarter of
    // the power (the collapsed core retains ~5% leakage).
    EXPECT_LT(just3, all4 * 0.80);
    EXPECT_GT(just3, all4 * 0.70);
}

TEST(Soc, PowerSumsClustersPlusUncore)
{
    SocParams sp;
    sp.name = "test";
    sp.clusters = {quadParams()};
    sp.uncoreActive = Watts(0.25);
    Soc soc(sp, typicalDie());

    soc.cluster(0).setUtilization(1.0);
    soc.cluster(0).setOppIndex(3);
    double total = soc.power(Celsius(40), false).value();
    double cluster_only =
        soc.cluster(0).power(soc.die(), Celsius(40)).value();
    EXPECT_NEAR(total, cluster_only + 0.25, 1e-9);
}

TEST(Soc, SuspendedPowerIsTiny)
{
    SocParams sp;
    sp.clusters = {quadParams()};
    Soc soc(sp, typicalDie());
    soc.cluster(0).setUtilization(1.0);
    soc.toHighestOpp();

    double active = soc.power(Celsius(40), false).value();
    double suspended = soc.power(Celsius(40), true).value();
    EXPECT_LT(suspended, active / 50.0);
    EXPECT_GT(suspended, 0.0);
}

TEST(Soc, BigLittleComposition)
{
    ClusterParams big = quadParams();
    big.name = "big";
    ClusterParams little = quadParams();
    little.name = "little";
    little.coreType = CoreType{"a53", 0.4, 4.2e9};
    little.table = VfTable({{MegaHertz(384), Volts(0.70)},
                            {MegaHertz(1555), Volts(0.90)}});

    SocParams sp;
    sp.clusters = {big, little};
    Soc soc(sp, typicalDie());
    EXPECT_EQ(soc.clusterCount(), 2u);
    EXPECT_EQ(soc.totalCores(), 8);

    soc.toHighestOpp();
    for (auto &c : soc.clusters())
        c.setUtilization(1.0);
    // Work rate includes both clusters.
    double expected = 4.0 * 2.265e9 / 2.6e9 + 4.0 * 1.555e9 / 4.2e9;
    EXPECT_NEAR(soc.workRate(), expected, 1e-9);
}

TEST(Soc, ToLowestAndHighestOpp)
{
    SocParams sp;
    sp.clusters = {quadParams()};
    Soc soc(sp, typicalDie());
    soc.toHighestOpp();
    EXPECT_DOUBLE_EQ(soc.cluster(0).frequency().value(), 2265);
    soc.toLowestOpp();
    EXPECT_DOUBLE_EQ(soc.cluster(0).frequency().value(), 300);
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/**
 * Cluster power evaluated core by core, every term from scratch: the
 * definition CpuCluster::power must reproduce bit for bit.
 */
Watts
perCoreReference(const CpuCluster &c, const Die &die, Celsius die_temp)
{
    const ClusterParams &p = c.params();
    const double size = p.coreType.sizeFactor;
    Volts v = c.appliedVoltage();
    MegaHertz f = c.frequency();
    Watts total(0.0);
    for (int core = 0; core < p.coreCount; ++core) {
        if (core < c.onlineCores()) {
            double activity = c.utilization() +
                              (1.0 - c.utilization()) *
                                  p.idleDynamicFraction;
            total += die.dynamicPower(v, f, activity, size);
            total += die.leakagePower(v, die_temp, size);
        } else {
            total += die.leakagePower(v, die_temp,
                                      size * p.offlineLeakFraction);
        }
    }
    return total;
}

/**
 * Set a cluster's dynamic state through its live-point loader, which
 * (unlike setOnlineCores) admits zero online cores.
 */
void
setClusterState(CpuCluster &c, std::size_t opp, int online, double util,
                double recoup)
{
    ByteWriter w;
    w.u64(opp);
    w.u32(static_cast<std::uint32_t>(online));
    w.f64(util);
    w.f64(recoup);
    std::string bytes = w.take();
    ByteReader r(bytes);
    ASSERT_TRUE(c.loadState(r));
}

/** A unit-0 device of every builtin model: real clusters, real dies. */
std::vector<std::unique_ptr<Device>>
builtinDevices()
{
    std::vector<std::unique_ptr<Device>> devices;
    for (const RegistryEntry &e : DeviceRegistry::builtin().entries())
        devices.push_back(buildDevice(e.spec, e.units.front()));
    return devices;
}

TEST(Cluster, PowerMatchesPerCoreReferenceOnEveryBuiltinSoc)
{
    for (const auto &device : builtinDevices()) {
        const Die &die = device->soc().die();
        for (CpuCluster c : device->soc().clusters()) {
            std::size_t top = c.table().size() - 1;
            for (std::size_t opp : {std::size_t(0), top / 2, top}) {
                for (int online = 0; online <= c.coreCount(); ++online) {
                    for (double util : {0.0, 0.37, 1.0}) {
                        double recoup = online % 2 ? 0.0125 : 0.0;
                        setClusterState(c, opp, online, util, recoup);
                        for (double t : {-55.0, 25.0, 61.3, 95.0, 230.0}) {
                            EXPECT_EQ(
                                bits(c.power(die, Celsius(t)).value()),
                                bits(perCoreReference(c, die, Celsius(t))
                                         .value()))
                                << device->soc().name() << " " << c.name()
                                << " opp=" << opp << " online=" << online
                                << " util=" << util << " T=" << t;
                        }
                    }
                }
            }
        }
    }
}

TEST(Soc, PowerMatchesPerClusterReferenceOnEveryBuiltinSoc)
{
    // Every builtin die and cluster set, plus a pair of clusters that
    // share one table so that their voltages coincide.
    std::vector<std::pair<std::vector<ClusterParams>, Die>> cases;
    for (const auto &device : builtinDevices()) {
        std::vector<ClusterParams> clusters;
        for (const CpuCluster &c : device->soc().clusters())
            clusters.push_back(c.params());
        cases.emplace_back(clusters, device->soc().die());
    }
    cases.emplace_back(std::vector<ClusterParams>{quadParams(),
                                                  quadParams()},
                       typicalDie());

    for (const auto &[clusters, die] : cases) {
        SocParams sp;
        sp.clusters = clusters;
        Soc soc(sp, die);
        for (std::size_t pattern = 0; pattern < 4; ++pattern) {
            for (std::size_t i = 0; i < soc.clusterCount(); ++i) {
                CpuCluster &c = soc.cluster(i);
                std::size_t top = c.table().size() - 1;
                std::size_t opp = pattern == 0   ? 0
                                  : pattern == 1 ? top
                                                 : (pattern + i) % (top + 1);
                int online = c.coreCount() - static_cast<int>(i);
                setClusterState(c, opp, online, 0.8,
                                pattern == 3 ? 0.01 : 0.0);
            }
            for (double t : {-55.0, 30.0, 78.25, 230.0}) {
                Watts active = sp.uncoreActive;
                Watts suspended = sp.uncoreSuspended;
                for (const CpuCluster &c : soc.clusters()) {
                    active += perCoreReference(c, die, Celsius(t));
                    double size = c.params().coreType.sizeFactor *
                                  c.params().offlineLeakFraction;
                    suspended += die.leakagePower(c.table().lowest().voltage,
                                                  Celsius(t),
                                                  size * c.coreCount());
                }
                EXPECT_EQ(bits(soc.power(Celsius(t), false).value()),
                          bits(active.value()))
                    << die.id() << " pattern=" << pattern << " T=" << t;
                EXPECT_EQ(bits(soc.power(Celsius(t), true).value()),
                          bits(suspended.value()))
                    << die.id() << " pattern=" << pattern << " T=" << t;
            }
        }
    }
}

TEST(Rbcpr, TargetMatchesLogReference)
{
    RbcprParams clamped;
    RbcprParams wide;
    wide.baseRecoup = 0.2;
    wide.maxRecoup = 1.0;
    for (const RbcprParams &params : {clamped, wide}) {
        RbcprController ctl(params);
        for (double leak : {0.55, 1.0, 1.8, 3.1}) {
            for (double speed : {0.9, 1.0, 1.12}) {
                Die die(node14nmFinFET(),
                        DieParams{"rbcpr", speed, leak, 0.0});
                for (double t : {18.0, 40.0, 87.5}) {
                    double r = params.baseRecoup;
                    r += params.leakGain * std::log(leak);
                    r += params.speedGain * std::log(speed);
                    r += params.tempGain * (t - params.tRef.value());
                    double want = std::clamp(r, 0.0, params.maxRecoup);
                    EXPECT_EQ(bits(ctl.target(die, Celsius(t)).value()),
                              bits(want))
                        << "leak=" << leak << " speed=" << speed
                        << " T=" << t;
                }
            }
        }
    }
}

TEST(Soc, InvalidConfigDies)
{
    SocParams sp; // no clusters
    EXPECT_DEATH(Soc(sp, typicalDie()), "");
}

} // namespace
} // namespace pvar
