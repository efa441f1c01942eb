/**
 * @file
 * Regenerates paper Fig 2: energy scaling with ambient temperature on
 * two different devices running at maximum frequency.
 *
 * The chamber target sweeps 10-42 C; for each ambient, the energy to
 * complete the same amount of work (J/iteration, UNCONSTRAINED) is
 * reported relative to the coolest point. The paper observes 25-30%
 * extra energy at high ambient, on every device tested.
 */

#include <cstdio>

#include "accubench/experiment.hh"
#include "bench_util.hh"
#include "device/fleet.hh"
#include "report/figure.hh"
#include "report/table.hh"

using namespace pvar;

namespace
{

struct SweepPoint
{
    double ambient;
    double joulePerIter;
};

std::vector<SweepPoint>
sweep(Device &device, MegaHertz pinned,
      const std::vector<double> &ambients)
{
    // FIXED-FREQUENCY keeps the work identical at every ambient: the
    // energy difference is pure leakage (plus its thermal feedback).
    // Under free DVFS the comparison would be confounded: throttling
    // at high ambient moves the device to a lower, more efficient
    // operating point.
    std::vector<SweepPoint> points;
    for (double amb : ambients) {
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::FixedFrequency;
        cfg.fixedFrequency = pinned;
        cfg.iterations = 2;
        cfg.thermabox.target = Celsius(amb);
        // The cooldown target must stay reachable above the ambient.
        cfg.accubench.cooldownTarget = Celsius(amb + 8.0);
        ExperimentResult r = runExperiment(device, cfg);
        points.push_back(
            {amb, r.meanWorkloadEnergy().value() / r.meanScore()});
    }
    return points;
}

} // namespace

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Fig 2: Energy scaling with ambient temperature (max frequency)",
        "same work costs 25-30% more energy at high ambient; the trend "
        "holds across devices").c_str());

    const std::vector<double> ambients = {10, 18, 26, 34, 42};

    auto nexus5 = makeUnitForSoc(
        "SD-800", UnitCorner{"N5-bin2", +0.30, +0.10, 0.0, 2});
    auto nexus6p = makeUnitForSoc(
        "SD-810", UnitCorner{"6P-520", 0.0, 0.0, 0.0});

    Table t({"Ambient C", "Nexus 5 J/iter", "(rel)", "Nexus 6P J/iter",
             "(rel)"});
    auto n5 = sweep(*nexus5, MegaHertz(1190), ambients);
    auto px = sweep(*nexus6p, MegaHertz(864), ambients);
    for (std::size_t i = 0; i < ambients.size(); ++i) {
        t.addRow({fmtDouble(ambients[i], 0),
                  fmtDouble(n5[i].joulePerIter, 2),
                  fmtDouble(n5[i].joulePerIter / n5[0].joulePerIter, 3),
                  fmtDouble(px[i].joulePerIter, 2),
                  fmtDouble(px[i].joulePerIter / px[0].joulePerIter, 3)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    double n5_rise = n5.back().joulePerIter / n5.front().joulePerIter - 1;
    double px_rise = px.back().joulePerIter / px.front().joulePerIter - 1;
    shapeCheck(n5_rise > 0.15,
               "Nexus 5: " + fmtPercent(n5_rise * 100.0) +
                   " more energy at 42C than 10C (paper: 25-30%)");
    shapeCheck(px_rise > 0.10,
               "Nexus 6P: " + fmtPercent(px_rise * 100.0) +
                   " more energy at 42C than 10C (effect holds across "
                   "devices)");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < n5.size(); ++i)
        monotone &= n5[i].joulePerIter <= n5[i + 1].joulePerIter * 1.01;
    shapeCheck(monotone, "energy rises monotonically with ambient");
    return 0;
}
