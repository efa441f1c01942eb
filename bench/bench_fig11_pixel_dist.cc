/**
 * @file
 * Regenerates paper Fig 11: frequency and temperature distributions
 * over time for two Google Pixel units. dev-488 delivers ~7% more
 * performance with a matching mean-frequency advantage — and the
 * counterintuitive part: time-at-temperature alone does not predict
 * who throttles more.
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
        "Fig 11: Pixel frequency/temperature distributions",
        "dev-488 +7% performance, +2-7% mean frequency; time at "
        "temperature is NOT sufficient to predict throttling").c_str());

    auto dev488 = makeUnitForSoc(
        "SD-821", UnitCorner{"dev-488", -0.90, -0.30, 0.0});
    auto dev653 = makeUnitForSoc(
        "SD-821", UnitCorner{"dev-653", +0.90, +0.45, 0.0});

    UnitDistributions a = collectDistributions(
        *dev488, "freq_perf", 1000.0, 2400.0, 74.0);
    UnitDistributions b = collectDistributions(
        *dev653, "freq_perf", 1000.0, 2400.0, 74.0);

    printDistributionFigure("Fig 11", a, b);

    double perf_delta = a.meanScore / b.meanScore - 1.0;
    double freq_delta = a.meanFreqMhz() / b.meanFreqMhz() - 1.0;

    std::printf("\nSHAPE CHECK vs paper:\n");
    shapeCheck(perf_delta > 0.02 && perf_delta < 0.15,
               "dev-488 outperforms dev-653 by " +
                   fmtPercent(perf_delta * 100.0) + " (paper: 7%)");
    shapeCheck(freq_delta > 0.0,
               "the mean-frequency advantage (" +
                   fmtPercent(freq_delta * 100.0) +
                   ") matches the performance direction");
    shapeCheck(std::abs(freq_delta - perf_delta) < 0.05,
               "mean frequency delta tracks the score delta");
    return 0;
}
