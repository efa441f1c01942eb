/**
 * @file
 * Regenerates the methodology claim of paper §VII: "an average error
 * of 1.1% RSD over roughly 300 iterations of our workloads."
 *
 * Runs many back-to-back ACCUBENCH iterations (both workload modes,
 * several devices) and reports the per-experiment score RSDs and
 * their average.
 */

#include <cstdio>

#include "accubench/experiment.hh"
#include "bench_util.hh"
#include "device/fleet.hh"
#include "report/figure.hh"
#include "report/table.hh"
#include "stats/summary.hh"

using namespace pvar;

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Methodology repeatability (paper SVII)",
        "average error of ~1.1% RSD across ~300 iterations").c_str());

    Table t({"Device", "Mode", "Iterations", "Score RSD", "Energy RSD"});
    OnlineSummary rsd_acc;
    int total_iterations = 0;

    struct Case
    {
        const char *soc;
        std::size_t unit;
        WorkloadMode mode;
    };
    const Case cases[] = {
        {"SD-800", 0, WorkloadMode::Unconstrained},
        {"SD-800", 3, WorkloadMode::Unconstrained},
        {"SD-800", 1, WorkloadMode::FixedFrequency},
        {"SD-810", 1, WorkloadMode::Unconstrained},
        {"SD-821", 0, WorkloadMode::Unconstrained},
        {"SD-821", 2, WorkloadMode::FixedFrequency},
    };

    for (const auto &c : cases) {
        Fleet fleet = fleetForSoc(c.soc);
        Device &device = *fleet[c.unit];

        const RegistryEntry &entry = DeviceRegistry::builtin().at(c.soc);
        ExperimentConfig cfg;
        cfg.mode = c.mode;
        cfg.fixedFrequency = entry.fixedFrequency;
        cfg.iterations = 8;
        cfg.supply = SupplyChoice::MonsoonExplicit;
        cfg.monsoonVoltage = entry.monsoonVoltage;
        ExperimentResult r = runExperiment(device, cfg);

        t.addRow({device.name(),
                  c.mode == WorkloadMode::Unconstrained ? "UNCONSTRAINED"
                                                        : "FIXED-FREQ",
                  std::to_string(cfg.iterations),
                  fmtPercent(r.scoreRsdPercent(), 3),
                  fmtPercent(r.energyRsdPercent(), 3)});
        rsd_acc.add(r.scoreRsdPercent());
        total_iterations += cfg.iterations;
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nAverage score RSD across %d iterations: %s\n",
                total_iterations,
                fmtPercent(rsd_acc.mean(), 3).c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    shapeCheck(rsd_acc.mean() <= 1.5,
               "average RSD " + fmtPercent(rsd_acc.mean(), 2) +
                   " (paper: 1.1%)");
    shapeCheck(rsd_acc.max() <= 3.0,
               "worst per-experiment RSD " +
                   fmtPercent(rsd_acc.max(), 2) +
                   " stays within the paper's reported errors (<=2.63%)");
    return 0;
}
