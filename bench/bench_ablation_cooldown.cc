/**
 * @file
 * Ablation: the cooldown target temperature (DESIGN.md §6).
 *
 * The cooldown phase pins the thermal state at which every scored
 * workload begins. A higher target shortens the wait but starts the
 * workload hotter (earlier throttling, lower score); skipping the
 * cooldown entirely couples consecutive iterations. The sweep shows
 * score level and repeatability against the target.
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
        "Ablation: cooldown target temperature",
        "the cooldown normalizes the starting thermal state of every "
        "scored iteration").c_str());

    const double targets_c[] = {30.0, 34.0, 38.0, 44.0, 50.0};

    Table t({"Target (C)", "Mean score", "Score RSD",
             "Mean cooldown (s)", "Start temp (C)"});
    std::vector<double> scores;

    for (double target : targets_c) {
        auto device = makeUnitForSoc(
            "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::Unconstrained;
        cfg.iterations = 3;
        cfg.accubench.cooldownTarget = Celsius(target);
        ExperimentResult r = runExperiment(*device, cfg);

        OnlineSummary cooldown, start;
        for (const auto &it : r.iterations) {
            cooldown.add(it.cooldownTime.toSec());
            start.add(it.tempAtWorkloadStart.value());
        }
        scores.push_back(r.meanScore());
        t.addRow({fmtDouble(target, 0), fmtDouble(r.meanScore(), 1),
                  fmtPercent(r.scoreRsdPercent(), 2),
                  fmtDouble(cooldown.mean(), 0),
                  fmtDouble(start.mean(), 1)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK:\n");
    shapeCheck(scores.front() > scores.back(),
               "starting cooler buys a higher score (" +
                   fmtDouble(scores.front(), 0) + " at 30C vs " +
                   fmtDouble(scores.back(), 0) + " at 50C) - the "
                   "refrigerator effect of Guo et al.");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < scores.size(); ++i)
        monotone &= scores[i] >= scores[i + 1] * 0.995;
    shapeCheck(monotone, "score decreases monotonically with the "
                         "starting temperature");
    return 0;
}
