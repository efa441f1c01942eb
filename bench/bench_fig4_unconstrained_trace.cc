/**
 * @file
 * Regenerates paper Fig 4: the stages of ACCUBENCH during an
 * UNCONSTRAINED workload on a Nexus 5 — warmup heats the CPU into
 * throttling, cooldown normalizes the thermal state, then the scored
 * workload throttles again.
 */

#include <cstdio>

#include "accubench/accubench.hh"
#include "bench_util.hh"
#include "device/fleet.hh"
#include "report/figure.hh"
#include "report/table.hh"
#include "sim/simulator.hh"

using namespace pvar;

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Fig 4: ACCUBENCH stages, UNCONSTRAINED workload (Nexus 5)",
        "CPU throttles quickly during warmup and workload; cooldown "
        "drops the die to the target temperature").c_str());

    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
    Simulator sim(Time::msec(10));
    sim.add(device.get());
    device->soakTo(Celsius(26.0));

    Trace trace;
    device->attachTrace(&trace);
    AccubenchConfig cfg; // paper defaults: 3 min warmup, 5 min workload
    IterationResult r = runAccubenchIteration(sim, *device, cfg, &trace);

    std::printf("\nPhase summary:\n");
    std::printf("  warmup   %6.1f s\n", r.warmupTime.toSec());
    std::printf("  cooldown %6.1f s (reached %.1fC target: %s)\n",
                r.cooldownTime.toSec(), cfg.cooldownTarget.value(),
                r.cooldownReachedTarget ? "yes" : "no");
    std::printf("  workload %6.1f s, score %.1f iterations, "
                "energy %.1f J\n",
                r.workloadTime.toSec(), r.score,
                r.workloadEnergy.value());

    std::printf("\nTime series (downsampled CSV):\n%s",
                traceSeriesCsv(trace,
                               {"die_temp", "freq_cpu", "phase",
                                "online_cores"},
                               60)
                    .c_str());

    // Phase windows for the checks.
    Time warmup_end = r.warmupTime;
    Time workload_start = r.warmupTime + r.cooldownTime;
    const auto &temp = trace.channel("die_temp");
    const auto &freq = trace.channel("freq_cpu");

    double warmup_peak = -1e9, workload_peak = -1e9;
    double workload_min_freq = 1e12;
    double temp_at_workload_start = 0.0;
    for (std::size_t i = 0; i < temp.size(); ++i) {
        const auto &s = temp.samples()[i];
        if (s.when <= warmup_end)
            warmup_peak = std::max(warmup_peak, s.value);
        if (s.when >= workload_start) {
            workload_peak = std::max(workload_peak, s.value);
            if (temp_at_workload_start == 0.0)
                temp_at_workload_start = s.value;
        }
    }
    for (const auto &s : freq.samples()) {
        if (s.when >= workload_start && s.value > 0)
            workload_min_freq = std::min(workload_min_freq, s.value);
    }

    std::printf("\nSHAPE CHECK vs paper:\n");
    shapeCheck(warmup_peak >= 70.0,
               "warmup drives the die into the throttling region (" +
                   fmtDouble(warmup_peak, 1) + " C)");
    shapeCheck(temp_at_workload_start <= cfg.cooldownTarget.value() + 3,
               "cooldown resets the die near the target before the "
               "workload");
    shapeCheck(workload_min_freq < 2265.0,
               "the workload phase throttles below the 2265 MHz top "
               "OPP (min " + fmtDouble(workload_min_freq, 0) + " MHz)");
    shapeCheck(workload_peak >= 70.0,
               "the workload re-heats the die into throttling (" +
                   fmtDouble(workload_peak, 1) + " C)");
    return 0;
}
