/**
 * @file
 * Thermal explorer: what ambient temperature does to a benchmark.
 *
 * Recreates the famous observation the paper cites from Guo et al.
 * (HotMobile'17): putting a phone in a refrigerator inflates its
 * benchmark score dramatically, and running it in a hot car deflates
 * it. The example sweeps chamber temperatures from refrigerator-cold
 * to hot-car and reports score and energy at each point, then shows
 * why ACCUBENCH's cooldown phase can *detect* such games through the
 * ambient estimate.
 */

#include <cstdio>

#include "accubench/accubench.hh"
#include "accubench/ambient_estimator.hh"
#include "accubench/experiment.hh"
#include "accubench/phase_windows.hh"
#include "device/fleet.hh"
#include "report/table.hh"
#include "sim/logging.hh"

using namespace pvar;

int
main()
{
    setLogLevel(LogLevel::Quiet);

    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"explorer", +0.3, +0.1, 0.0, 2});

    struct Scenario
    {
        const char *name;
        double ambient;
    };
    const Scenario scenarios[] = {
        {"refrigerator", 4.0}, {"winter night", 12.0},
        {"lab (paper)", 26.0}, {"summer day", 34.0},
        {"hot car", 45.0},
    };

    std::printf("Sweeping one Nexus 5 through five thermal "
                "environments (UNCONSTRAINED ACCUBENCH)...\n\n");

    struct Row
    {
        std::string name;
        double ambient;
        double score;
        double energy;
        std::string estimate;
    };
    std::vector<Row> rows;

    for (const auto &sc : scenarios) {
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::Unconstrained;
        cfg.iterations = 2;
        cfg.thermabox.target = Celsius(sc.ambient);
        cfg.accubench.cooldownTarget = Celsius(sc.ambient + 8.0);
        ExperimentResult r = runExperiment(*device, cfg);

        // The §VI trick: the cooldown decay curve betrays the true
        // ambient, no thermometer needed. Fit the second iteration's
        // cooldown window.
        AmbientEstimate est;
        if (auto w = phaseWindow(*r.trace, AccubenchPhase::Cooldown, 1)) {
            est = estimateAmbientFromTrace(r.trace->channel("die_temp"),
                                           w->begin, w->end);
        }

        rows.push_back(Row{sc.name, sc.ambient, r.meanScore(),
                           r.meanWorkloadEnergy().value(),
                           est.valid ? fmtDouble(est.ambient.value(), 1)
                                     : "(no fit)"});
    }

    double lab_score = rows[2].score;
    Table t({"Environment", "Ambient C", "Score", "vs lab",
             "Energy (J)", "Est. ambient C"});
    for (const auto &row : rows) {
        t.addRow({row.name, fmtDouble(row.ambient, 0),
                  fmtDouble(row.score, 1),
                  fmtPercent((row.score / lab_score - 1.0) * 100.0),
                  fmtDouble(row.energy, 1), row.estimate});
    }
    std::printf("%s", t.render().c_str());

    double fridge_gain = rows.front().score / lab_score - 1.0;
    double car_loss = 1.0 - rows.back().score / lab_score;
    std::printf("\nThe refrigerator buys %s score; the hot car costs "
                "%s.\n",
                fmtPercent(fridge_gain * 100.0).c_str(),
                fmtPercent(car_loss * 100.0).c_str());
    std::printf("(Guo et al. report >60%% inflation for Antutu in a "
                "refrigerator; the direction and the ambient estimates "
                "above show how crowdsourced filtering catches it.)\n");
    return 0;
}
