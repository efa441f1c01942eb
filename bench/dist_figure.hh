/**
 * @file
 * Shared implementation for the distribution figures (paper Figs
 * 11-12): run the UNCONSTRAINED workload on two units of one model
 * and compare their frequency and temperature distributions over the
 * scored window, plus the mean-frequency/performance correspondence
 * the paper highlights.
 */

#ifndef PVAR_BENCH_DIST_FIGURE_HH
#define PVAR_BENCH_DIST_FIGURE_HH

#include <cstdio>
#include <memory>
#include <string>

#include "accubench/experiment.hh"
#include "accubench/throttle_analysis.hh"
#include "bench_util.hh"
#include "device/device.hh"
#include "report/figure.hh"
#include "report/table.hh"

namespace pvar
{

/** Per-unit distribution data. */
struct UnitDistributions
{
    std::string unitId;
    double meanScore = 0.0;
    ThrottleAnalysis throttling;

    double meanFreqMhz() const { return throttling.meanFreqMhz; }
};

/**
 * Run the experiment and collect workload-phase distributions.
 *
 * @param device unit under test.
 * @param freq_channel trace channel of the (big) cluster frequency.
 * @param freq_lo/freq_hi histogram range (MHz).
 * @param hot_threshold "time at temperature" threshold (C).
 */
inline UnitDistributions
collectDistributions(Device &device, const std::string &freq_channel,
                     double freq_lo, double freq_hi,
                     double hot_threshold)
{
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::Unconstrained;
    cfg.iterations = 2;
    ExperimentResult r = runExperiment(device, cfg);

    ThrottleAnalysisConfig ta;
    ta.freqChannel = freq_channel;
    ta.freqLoMhz = freq_lo;
    ta.freqHiMhz = freq_hi;
    ta.hotThresholdC = hot_threshold;
    ta.tempLoC = 26.0;
    ta.tempHiC = 90.0;

    UnitDistributions out;
    out.unitId = device.unitId();
    out.meanScore = r.meanScore();
    out.throttling = analyzeThrottling(*r.trace, ta);
    return out;
}

/** Print the two-unit comparison and return the key ratios. */
inline void
printDistributionFigure(const std::string &figure_id,
                        const UnitDistributions &a,
                        const UnitDistributions &b)
{
    for (const auto *u : {&a, &b}) {
        std::printf("\n--- %s: frequency distribution (MHz) ---\n%s",
                    u->unitId.c_str(),
                    u->throttling.freqHist.toAscii(40).c_str());
        std::printf("--- %s: temperature distribution (C) ---\n%s",
                    u->unitId.c_str(),
                    u->throttling.tempHist.toAscii(40).c_str());
    }

    Table t({"Unit", "Mean freq (MHz)", "Score", "Time at temp"});
    for (const auto *u : {&a, &b}) {
        t.addRow({u->unitId, fmtDouble(u->meanFreqMhz(), 0),
                  fmtDouble(u->meanScore, 1),
                  fmtPercent(u->throttling.fractionHot * 100.0)});
    }
    std::printf("\n%s", t.render().c_str());

    double freq_delta = a.meanFreqMhz() / b.meanFreqMhz() - 1.0;
    double perf_delta = a.meanScore / b.meanScore - 1.0;
    std::printf("\n%s: %s has %s higher mean frequency and %s higher "
                "score than %s\n",
                figure_id.c_str(), a.unitId.c_str(),
                fmtPercent(freq_delta * 100.0).c_str(),
                fmtPercent(perf_delta * 100.0).c_str(),
                b.unitId.c_str());
}

} // namespace pvar

#endif // PVAR_BENCH_DIST_FIGURE_HH
