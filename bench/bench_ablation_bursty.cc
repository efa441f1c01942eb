/**
 * @file
 * Ablation: workload duty cycle vs. observable process variation.
 *
 * The paper studies a sustained CPU-bound workload because that is
 * where thermal throttling — and therefore process variation —
 * manifests. This bench quantifies the corollary for interactive,
 * bursty use: as the duty cycle drops, devices stop reaching their
 * trip points and the performance gap between a frugal and a leaky
 * die of the same model collapses. Variation is a *sustained-load*
 * phenomenon; two phones can feel identical in light use and differ
 * by >10% under load.
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

double
scoreWithDuty(Device &device, double duty)
{
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::Unconstrained;
    cfg.iterations = 2;
    cfg.accubench.workload.burstPeriod =
        duty < 1.0 ? Time::sec(10) : Time::zero();
    cfg.accubench.workload.burstDuty = duty;
    return runExperiment(device, cfg).meanScore();
}

} // namespace

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Ablation: duty cycle vs observable variation",
        "process variation manifests under sustained load; bursty "
        "(interactive) use masks it").c_str());

    auto frugal = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-0", -1.75, +0.15, 0.0, 0});
    auto leaky = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});

    const double duties[] = {0.3, 0.5, 0.7, 1.0};
    Table t({"Duty cycle", "bin-0 score", "bin-3 score",
             "observable gap"});
    std::vector<double> gaps;

    for (double duty : duties) {
        double s0 = scoreWithDuty(*frugal, duty);
        double s3 = scoreWithDuty(*leaky, duty);
        double gap = (s0 - s3) / s0 * 100.0;
        gaps.push_back(gap);
        t.addRow({fmtPercent(duty * 100.0, 0), fmtDouble(s0, 1),
                  fmtDouble(s3, 1), fmtPercent(gap)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK:\n");
    shapeCheck(gaps.back() > 8.0,
               "under sustained load the bin gap is " +
                   fmtPercent(gaps.back()) + " (the Fig 6a result)");
    shapeCheck(gaps.front() < gaps.back() * 0.4,
               "at 30% duty the gap collapses to " +
                   fmtPercent(gaps.front()) +
                   " - light use masks the silicon lottery");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < gaps.size(); ++i)
        monotone &= gaps[i] <= gaps[i + 1] + 1.0;
    shapeCheck(monotone, "the gap grows with duty cycle");
    return 0;
}
