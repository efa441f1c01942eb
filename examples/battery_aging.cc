/**
 * @file
 * Battery aging and non-thermal throttling.
 *
 * Paper §IV-C connects the LG G5's input-voltage throttle to the
 * iPhone slowdown reports: "The voltage that a battery is able to
 * supply decreases over time and throttling based on the input
 * voltage deteriorates user-perceived performance." This example
 * quantifies exactly that: the same G5 silicon, benchmarked on
 * batteries of increasing age and decreasing charge, falls off a
 * performance cliff when its rail starts dipping below the brownout
 * threshold.
 */

#include <cstdio>

#include "accubench/experiment.hh"
#include "device/catalog.hh"
#include "device/fleet.hh"
#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"
#include "report/table.hh"
#include "sim/logging.hh"

using namespace pvar;

int
main()
{
    setLogLevel(LogLevel::Quiet);

    std::printf("Benchmarking one LG G5 on batteries of increasing "
                "age (UNCONSTRAINED ACCUBENCH, battery powered)...\n\n");

    struct AgePoint
    {
        double age;
        double soc;
        const char *label;
    };
    const AgePoint points[] = {
        {0.0, 1.00, "new cell, full"},
        {0.0, 0.60, "new cell, 60%"},
        {0.5, 1.00, "2-year cell, full"},
        {0.5, 0.60, "2-year cell, 60%"},
        {1.0, 1.00, "worn cell, full"},
        {1.0, 0.60, "worn cell, 60%"},
    };

    Table t({"Battery", "Age", "SoC", "Score", "vs new/full",
             "Min rail (V)"});
    double baseline = 0.0;

    auto device_ptr = makeUnitForSoc(
        "SD-820", UnitCorner{"aging-dut", 0.0, 0.0, 0.0});
    Device &device = *device_ptr;

    for (const auto &p : points) {
        // Swap the cell's age in place (same silicon throughout).
        device.battery().setAge(p.age);

        ExperimentConfig exp;
        exp.mode = WorkloadMode::Unconstrained;
        exp.iterations = 2;
        exp.supply = SupplyChoice::Battery;
        exp.batterySoc = p.soc;
        ExperimentResult r = runExperiment(device, exp);

        double min_rail = r.trace->channel("supply_v").min();
        if (baseline == 0.0)
            baseline = r.meanScore();

        t.addRow({p.label, fmtDouble(p.age, 1),
                  fmtPercent(p.soc * 100.0, 0),
                  fmtDouble(r.meanScore(), 1),
                  fmtPercent((r.meanScore() / baseline - 1.0) * 100.0),
                  fmtDouble(min_rail, 2)});
    }
    std::printf("%s", t.render().c_str());

    std::printf(
        "\nThe cliff appears when the loaded rail crosses the %.2f V "
        "brownout threshold: higher internal resistance (age) and "
        "lower open-circuit voltage (state of charge) both push it "
        "down.\nThe fix phone vendors chose — capping frequency — is "
        "exactly what the table shows; the fix users wanted was a new "
        "battery.\n",
        resolveDeviceConfig(lgG5Spec(), 0).inputThrottle.engageBelow.value());
    return 0;
}
