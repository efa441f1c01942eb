/**
 * @file
 * Ablation: the warmup phase (DESIGN.md §6).
 *
 * The paper chose a 3-minute warmup so the first scored iteration
 * starts from the same thermal state as later ones. This bench sweeps
 * the warmup duration and reports the iteration-1 score bias and the
 * overall RSD — without warmup, iteration 1 is visibly inflated
 * (cold device throttles later).
 */

#include <cstdio>

#include "accubench/experiment.hh"
#include "bench_util.hh"
#include "device/fleet.hh"
#include "report/figure.hh"
#include "report/table.hh"

using namespace pvar;

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Ablation: warmup duration",
        "3 minutes was found sufficient for consistent results; "
        "without warmup the first iteration is biased high").c_str());

    const double warmup_minutes[] = {0.0, 1.0, 3.0, 5.0};

    Table t({"Warmup (min)", "Iter-1 score", "Iter-2..4 mean",
             "Iter-1 bias", "Score RSD (all)"});
    double bias_none = 0.0, bias_paper = 0.0;

    for (double wm : warmup_minutes) {
        auto device = makeUnitForSoc(
            "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::Unconstrained;
        cfg.iterations = 4;
        cfg.accubench.warmupDuration = Time::minutes(wm);
        ExperimentResult r = runExperiment(*device, cfg);

        double iter1 = r.iterations[0].score;
        OnlineSummary rest;
        for (std::size_t i = 1; i < r.iterations.size(); ++i)
            rest.add(r.iterations[i].score);
        double bias = iter1 / rest.mean() - 1.0;
        if (wm == 0.0)
            bias_none = bias;
        if (wm == 3.0)
            bias_paper = bias;

        t.addRow({fmtDouble(wm, 0), fmtDouble(iter1, 1),
                  fmtDouble(rest.mean(), 1),
                  fmtPercent(bias * 100.0, 2),
                  fmtPercent(r.scoreRsdPercent(), 2)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    shapeCheck(bias_none > bias_paper + 0.005,
               "skipping warmup inflates iteration 1 by " +
                   fmtPercent(bias_none * 100.0, 2) + " vs " +
                   fmtPercent(bias_paper * 100.0, 2) +
                   " with the paper's 3 minutes");
    shapeCheck(std::abs(bias_paper) < 0.02,
               "with a 3-minute warmup, iteration 1 agrees with "
               "steady state");
    return 0;
}
