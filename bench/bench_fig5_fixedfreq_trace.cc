/**
 * @file
 * Regenerates paper Fig 5: thermal characteristics of the
 * FIXED-FREQUENCY workload on a Nexus 5 — at a pinned low frequency
 * the device never reaches throttling temperatures.
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
        "Fig 5: ACCUBENCH stages, FIXED-FREQUENCY workload (Nexus 5)",
        "at the pinned low frequency the device never heats to "
        "throttling levels").c_str());

    const MegaHertz pinned_freq =
        DeviceRegistry::builtin().at("SD-800").fixedFrequency;
    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
    device->setFixedFrequency(pinned_freq);

    Simulator sim(Time::msec(10));
    sim.add(device.get());
    device->soakTo(Celsius(26.0));

    Trace trace;
    device->attachTrace(&trace);
    AccubenchConfig cfg;
    IterationResult r = runAccubenchIteration(sim, *device, cfg, &trace);

    std::printf("\nPhase summary:\n");
    std::printf("  warmup   %6.1f s\n", r.warmupTime.toSec());
    std::printf("  cooldown %6.1f s\n", r.cooldownTime.toSec());
    std::printf("  workload %6.1f s, score %.1f iterations, "
                "energy %.1f J\n",
                r.workloadTime.toSec(), r.score,
                r.workloadEnergy.value());

    std::printf("\nTime series (downsampled CSV):\n%s",
                traceSeriesCsv(trace, {"die_temp", "freq_cpu", "phase"},
                               60)
                    .c_str());

    const auto &temp = trace.channel("die_temp");
    const auto &freq = trace.channel("freq_cpu");
    double peak = temp.max();
    double pinned = pinned_freq.value();

    bool never_throttled = true;
    for (const auto &s : freq.samples()) {
        if (s.value > 0 && s.value != pinned)
            never_throttled = false;
    }

    std::printf("\nSHAPE CHECK vs paper:\n");
    shapeCheck(peak < 70.0,
               "die peaks at " + fmtDouble(peak, 1) +
                   " C, below every trip point");
    shapeCheck(never_throttled,
               "frequency stayed pinned at " + fmtDouble(pinned, 0) +
                   " MHz for the entire run");
    shapeCheck(r.peakWorkloadTemp.value() < 70.0,
               "workload phase peak " +
                   fmtDouble(r.peakWorkloadTemp.value(), 1) +
                   " C: no thermal interference with the energy "
                   "measurement");
    return 0;
}
