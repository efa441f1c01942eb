/**
 * @file
 * Regenerates paper Fig 12: frequency and temperature distributions
 * for two Nexus 5 units (bin-1 vs bin-3). The paper observes bin-1
 * outperforming bin-3 by 11% with an 11% higher mean frequency —
 * i.e., the entire performance difference is throttling, not
 * background activity.
 */

#include <cstdio>

#include "device/fleet.hh"
#include "dist_figure.hh"

using namespace pvar;

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Fig 12: Nexus 5 frequency/temperature distributions",
        "bin-1 outperforms bin-3 by 11%; mean frequency is also 11% "
        "higher — the gap is throttling, not background noise").c_str());

    auto bin1 = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-1", -0.70, -0.10, 0.0, 1});
    auto bin3 = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});

    UnitDistributions a =
        collectDistributions(*bin1, "freq_cpu", 1100.0, 2300.0, 73.0);
    UnitDistributions b =
        collectDistributions(*bin3, "freq_cpu", 1100.0, 2300.0, 73.0);

    printDistributionFigure("Fig 12", a, b);

    double perf_delta = a.meanScore / b.meanScore - 1.0;
    double freq_delta = a.meanFreqMhz() / b.meanFreqMhz() - 1.0;

    std::printf("\nSHAPE CHECK vs paper:\n");
    shapeCheck(perf_delta > 0.05 && perf_delta < 0.20,
               "bin-1 outperforms bin-3 by " +
                   fmtPercent(perf_delta * 100.0) + " (paper: 11%)");
    shapeCheck(freq_delta > 0.03,
               "bin-1's mean frequency is " +
                   fmtPercent(freq_delta * 100.0) + " higher");
    shapeCheck(std::abs(freq_delta - perf_delta) < 0.06,
               "mean-frequency delta explains the score delta "
               "(throttling, not background tasks)");
    shapeCheck(b.throttling.fractionHot > a.throttling.fractionHot,
               "the leakier unit spends more time hot");
    return 0;
}
