/**
 * @file
 * Quickstart: benchmark one simulated phone with ACCUBENCH.
 *
 * Builds a Nexus 5, places it in a THERMABOX at 26 C, powers it from
 * a Monsoon, runs one UNCONSTRAINED and one FIXED-FREQUENCY
 * experiment, and prints the scores — the smallest end-to-end use of
 * the library's public API.
 *
 *   ./quickstart [bin] [corner]
 *
 * where `bin` is the Nexus 5 voltage bin (0..6, default 2) and
 * `corner` the die's process corner (default 0.0 = typical;
 * positive = fast & leaky).
 */

#include <cstdio>
#include <cstdlib>

#include "accubench/experiment.hh"
#include "device/fleet.hh"
#include "sim/logging.hh"

using namespace pvar;

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Quiet);

    int bin = argc > 1 ? std::atoi(argv[1]) : 2;
    double corner = argc > 2 ? std::atof(argv[2]) : 0.0;

    std::printf("Building a Nexus 5 (SD-800), voltage bin %d, process "
                "corner %+.2f...\n",
                bin, corner);
    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"my-phone", corner, 0.0, 0.0, bin});

    const Die &die = device->soc().die();
    std::printf("  die: speedFactor %.3f, leakFactor %.3f\n",
                die.params().speedFactor, die.params().leakFactor);
    std::printf("  V-F table: %s\n",
                device->soc().cluster(0).table().toString().c_str());

    // -- UNCONSTRAINED: free DVFS, thermal throttling decides. ----------
    ExperimentConfig unc;
    unc.mode = WorkloadMode::Unconstrained;
    unc.iterations = 3;
    std::printf("\nRunning UNCONSTRAINED ACCUBENCH (3 iterations of "
                "3 min warmup + cooldown + 5 min workload)...\n");
    ExperimentResult unc_r = runExperiment(*device, unc);

    for (std::size_t i = 0; i < unc_r.iterations.size(); ++i) {
        const IterationResult &it = unc_r.iterations[i];
        std::printf("  iteration %zu: score %.1f, energy %.1f J, "
                    "cooldown %.0f s, peak %.1f C\n",
                    i + 1, it.score, it.workloadEnergy.value(),
                    it.cooldownTime.toSec(),
                    it.peakWorkloadTemp.value());
    }
    std::printf("  => score %.1f +/- %.2f%% RSD\n", unc_r.meanScore(),
                unc_r.scoreRsdPercent());

    // -- FIXED-FREQUENCY: equal work, energy is the observable. ----------
    ExperimentConfig fix;
    fix.mode = WorkloadMode::FixedFrequency;
    fix.fixedFrequency =
        DeviceRegistry::builtin().at("SD-800").fixedFrequency;
    fix.iterations = 3;
    std::printf("\nRunning FIXED-FREQUENCY ACCUBENCH at %.0f MHz...\n",
                fix.fixedFrequency.value());
    ExperimentResult fix_r = runExperiment(*device, fix);
    std::printf("  => %.1f iterations using %.1f J (+/- %.2f%% RSD)\n",
                fix_r.meanScore(),
                fix_r.meanWorkloadEnergy().value(),
                fix_r.energyRsdPercent());

    std::printf("\nEfficiency: %.0f iterations per watt-hour.\n",
                unc_r.meanScore() /
                    (unc_r.meanWorkloadEnergy().value() / 3600.0));
    std::printf("Try './quickstart 3 1.2' to benchmark a leaky unit of "
                "the same model.\n");
    return 0;
}
