/**
 * @file
 * Ablation: the leakage-temperature feedback loop (DESIGN.md §6).
 *
 * Paper §II: "the higher heat dissipation increases the temperature
 * of the device which in turn creates a feedback loop that increases
 * leakage current." This bench disables the loop (by flattening the
 * leakage model's temperature dependence) and compares the
 * energy-vs-ambient slope with the full model: without feedback, the
 * Fig 2 ambient sensitivity largely disappears.
 */

#include <cstdio>

#include "accubench/experiment.hh"
#include "bench_util.hh"
#include "device/catalog.hh"
#include "report/figure.hh"
#include "report/table.hh"
#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"

using namespace pvar;

namespace
{

std::unique_ptr<Device>
buildNexus5(double corner, bool with_feedback)
{
    ProcessNode node = node28nmHPm();
    if (!with_feedback) {
        // A practically infinite e-fold scale freezes leakage at its
        // reference-temperature value.
        node.leakTempSlope = 1e9;
    }
    VariationModel model(node);
    Die die = model.dieAtCorner(corner, 0.1,
                                0.0, with_feedback ? "fb" : "nofb");
    return std::make_unique<Device>(resolveDeviceConfig(nexus5Spec(), 2),
                                    std::move(die));
}

double
energyPerIterationAt(Device &device, double ambient)
{
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = MegaHertz(1190);
    cfg.iterations = 2;
    cfg.thermabox.target = Celsius(ambient);
    cfg.accubench.cooldownTarget = Celsius(ambient + 8.0);
    ExperimentResult r = runExperiment(device, cfg);
    return r.meanWorkloadEnergy().value() / r.meanScore();
}

} // namespace

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Ablation: leakage-temperature feedback",
        "the feedback loop is what makes energy scale with ambient "
        "(paper SII / Fig 2)").c_str());

    Table t({"Model", "J/iter @ 10C", "J/iter @ 42C", "Increase"});
    double rises[2] = {0, 0};
    int idx = 0;
    for (bool feedback : {true, false}) {
        auto device = buildNexus5(+0.3, feedback);
        double cold = energyPerIterationAt(*device, 10.0);
        double hot = energyPerIterationAt(*device, 42.0);
        double rise = hot / cold - 1.0;
        rises[idx++] = rise;
        t.addRow({feedback ? "full model" : "feedback disabled",
                  fmtDouble(cold, 2), fmtDouble(hot, 2),
                  fmtPercent(rise * 100.0)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK:\n");
    shapeCheck(rises[0] > 0.12,
               "with feedback, hot ambient costs " +
                   fmtPercent(rises[0] * 100.0) +
                   " more energy (paper: 25-30%)");
    shapeCheck(rises[1] < rises[0] * 0.5,
               "without feedback the ambient sensitivity collapses to " +
                   fmtPercent(rises[1] * 100.0));
    return 0;
}
