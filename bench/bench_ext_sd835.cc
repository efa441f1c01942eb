/**
 * @file
 * EXTENSION: predicting the next generation (SD-835 / Pixel 2).
 *
 * The paper studied 5 of the 8 Snapdragon generations since 2013 and
 * observed variation shrinking as manufacturing matured (Table II)
 * while efficiency improved (Fig 13). This bench runs the identical
 * protocol on a modeled 10 nm SD-835 fleet — one generation past the
 * paper — and checks that the library's physics continues both
 * trends. This is a model *prediction*, clearly outside the paper's
 * measured data.
 */

#include <cstdio>

#include "accubench/experiment.hh"
#include "accubench/protocol.hh"
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
        "Extension: SD-835 (Pixel 2) prediction",
        "one generation past the paper; variation should continue to "
        "shrink and efficiency to improve").c_str());

    // A 3-unit fleet with the same corner spacing the paper's Pixel
    // fleet used, so the comparison is apples-to-apples.
    std::vector<std::unique_ptr<Device>> fleet;
    fleet.push_back(makeUnitForSoc(
        "SD-835", UnitCorner{"dev-p2a", -0.90, -0.30, 0.0}));
    fleet.push_back(makeUnitForSoc(
        "SD-835", UnitCorner{"dev-p2b", 0.00, 0.00, 0.0}));
    fleet.push_back(makeUnitForSoc(
        "SD-835", UnitCorner{"dev-p2c", +0.90, +0.45, 0.0}));

    ExperimentConfig unc;
    unc.mode = WorkloadMode::Unconstrained;
    unc.iterations = 3;

    ExperimentConfig fix = unc;
    fix.mode = WorkloadMode::FixedFrequency;
    fix.fixedFrequency = MegaHertz(1401);

    std::vector<ExperimentResult> unc_r, fix_r;
    for (auto &device : fleet) {
        unc_r.push_back(runExperiment(*device, unc));
        fix_r.push_back(runExperiment(*device, fix));
    }
    SocStudy sd835 =
        reduceSocStudy("SD-835", "Google Pixel 2", unc_r, fix_r);

    // The paper-series neighbour for comparison.
    StudyConfig ref_cfg;
    ref_cfg.iterations = 3;
    SocStudy sd821 = runSocStudy("SD-821", ref_cfg);

    Table t({"Chipset", "Perf var", "Energy var",
             "Efficiency (it/Wh)"});
    for (const SocStudy *s : {&sd821, &sd835}) {
        t.addRow({s->socName, fmtPercent(s->perfVariationPercent),
                  fmtPercent(s->energyVariationPercent),
                  fmtDouble(s->efficiencyIterPerWh, 0)});
    }
    std::printf("%s", t.render().c_str());

    BarFigure fig("Predicted continuation of Fig 13", "iter/Wh");
    fig.addBar("SD-821 (paper)", sd821.efficiencyIterPerWh);
    fig.addBar("SD-835 (predicted)", sd835.efficiencyIterPerWh);
    std::printf("\n%s", fig.render(true).c_str());

    std::printf("\nSHAPE CHECK (prediction, not paper data):\n");
    shapeCheck(sd835.perfVariationPercent <=
                   sd821.perfVariationPercent + 1.0,
               "perf variation does not regress: " +
                   fmtPercent(sd835.perfVariationPercent) + " vs " +
                   fmtPercent(sd821.perfVariationPercent));
    shapeCheck(sd835.energyVariationPercent <=
                   sd821.energyVariationPercent + 1.0,
               "energy variation does not regress: " +
                   fmtPercent(sd835.energyVariationPercent) + " vs " +
                   fmtPercent(sd821.energyVariationPercent));
    shapeCheck(sd835.efficiencyIterPerWh >
                   sd821.efficiencyIterPerWh * 1.1,
               "efficiency improves generation-over-generation");
    shapeCheck(sd835.fixedPerfSpreadPercent <= 1.0,
               "the methodology's fixed-frequency sanity holds on the "
               "new model");
    return 0;
}
