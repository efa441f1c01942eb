/**
 * @file
 * Regenerates the behaviour behind paper Fig 3: the THERMABOX
 * controlled thermal environment holding 26 +/- 0.5 C around a
 * working device.
 *
 * Fig 3 itself is an apparatus photo; the reproducible content is the
 * chamber's regulation quality, which this bench demonstrates with a
 * device dissipating full CPU power inside the box, a setpoint
 * change, and the resulting duty cycles.
 */

#include <cstdio>

#include "bench_util.hh"
#include "device/fleet.hh"
#include "report/figure.hh"
#include "report/table.hh"
#include "sim/simulator.hh"
#include "thermabox/thermabox.hh"

using namespace pvar;

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Fig 3: THERMABOX controlled thermal environment",
        "RaspberryPi bang-bang controller, compressor + 250 W halogen "
        "lamp, 26 +/- 0.5 C").c_str());

    Thermabox box((ThermaboxParams()));
    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"dut", 0.3, 0.1, 0.0, 2});
    Simulator sim(Time::msec(20));
    sim.add(&box);
    sim.add(device.get());
    box.placeDevice(device.get());

    device->acquireWakelock();
    device->startWorkload(CpuIntensiveWorkload{});

    double min_air = 1e9, max_air = -1e9;
    Table t({"t (min)", "air C", "probe C", "lamp", "compressor",
             "device W"});
    for (int minute = 1; minute <= 20; ++minute) {
        sim.runFor(Time::minutes(1));
        double air = box.airTemp().value();
        if (minute > 2) { // after initial settling
            min_air = std::min(min_air, air);
            max_air = std::max(max_air, air);
        }
        if (minute % 2 == 0) {
            t.addRow({std::to_string(minute), fmtDouble(air, 2),
                      fmtDouble(box.probeTemp().value(), 2),
                      box.lampOn() ? "ON" : "off",
                      box.compressorOn() ? "ON" : "off",
                      fmtDouble(device->lastPower().value(), 2)});
        }
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nActuator duty cycles over the run: lamp %.1f%%, "
                "compressor %.1f%%\n",
                box.lampDutyCycle() * 100.0,
                box.compressorDutyCycle() * 100.0);

    std::printf("\nSetpoint change to 30C (ambient sweep capability):\n");
    box.setTarget(Celsius(30.0));
    Time t0 = sim.now();
    bool reached = sim.runUntilCondition([&box] { return box.stable(); },
                                         sim.now() + Time::minutes(40));
    std::printf("  stable at %.1fC after %.1f min\n",
                box.airTemp().value(), (sim.now() - t0).toMinutes());

    std::printf("\nSHAPE CHECK vs paper:\n");
    shapeCheck(min_air >= 26.0 - 0.75 && max_air <= 26.0 + 0.75,
               "air stayed in " + fmtDouble(min_air, 2) + ".." +
                   fmtDouble(max_air, 2) +
                   " C while absorbing device heat (paper: +/-0.5 C)");
    shapeCheck(reached, "chamber re-stabilizes after a setpoint change");
    return 0;
}
