/**
 * @file
 * Ablation: thermal-governor hysteresis width (DESIGN.md §6).
 *
 * Hysteresis trades oscillation against mean frequency: a narrow band
 * releases caps quickly (more cap toggling, temperature rides the
 * trip line), a wide band latches mitigation long after the die has
 * cooled (calmer, but slower). This is the mechanism behind the
 * paper's Pixel observation that time-at-temperature alone cannot
 * predict throttling outcomes.
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
nexus5WithHysteresis(double width_c)
{
    DeviceConfig cfg = resolveDeviceConfig(nexus5Spec(), 3);
    for (auto &trip : cfg.thermalGov.trips)
        trip.clear = trip.trip - Celsius(width_c);
    for (auto &rule : cfg.thermalGov.shutdowns)
        rule.clear = rule.trip - Celsius(width_c + 2.0);

    ProcessNode node = node28nmHPm();
    VariationModel model(node);
    Die die = model.dieAtCorner(+1.25, 0.10, 0.0, "bin-3");
    return std::make_unique<Device>(std::move(cfg), std::move(die));
}

} // namespace

int
main()
{
    benchQuiet();
    std::printf("%s", figureHeader(
        "Ablation: throttle hysteresis width",
        "narrow bands oscillate, wide bands latch mitigation; both "
        "change the delivered mean frequency").c_str());

    const double widths_c[] = {0.5, 1.5, 3.0, 6.0, 10.0};

    Table t({"Hysteresis (C)", "Score", "Mean freq (MHz)",
             "Freq changes", "Time capped"});
    std::vector<double> scores;
    std::vector<int> toggles;

    for (double width : widths_c) {
        auto device = nexus5WithHysteresis(width);
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::Unconstrained;
        cfg.iterations = 2;
        ExperimentResult r = runExperiment(*device, cfg);

        const auto &freq = r.trace->channel("freq_cpu");
        int changes = 0;
        OnlineSummary mean_freq;
        Time capped = Time::zero(), running = Time::zero();
        for (std::size_t i = 0; i + 1 < freq.size(); ++i) {
            double f = freq.samples()[i].value;
            if (f <= 0)
                continue;
            mean_freq.add(f);
            Time span =
                freq.samples()[i + 1].when - freq.samples()[i].when;
            running += span;
            if (f < 2265.0)
                capped += span;
            if (freq.samples()[i + 1].value > 0 &&
                freq.samples()[i + 1].value != f)
                ++changes;
        }
        scores.push_back(r.meanScore());
        toggles.push_back(changes);
        t.addRow({fmtDouble(width, 1), fmtDouble(r.meanScore(), 1),
                  fmtDouble(mean_freq.mean(), 0),
                  std::to_string(changes),
                  fmtPercent(running > Time::zero()
                                 ? capped / running * 100.0
                                 : 0.0)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK:\n");
    shapeCheck(toggles.front() > toggles.back(),
               "narrow hysteresis toggles the cap more often (" +
                   std::to_string(toggles.front()) + " vs " +
                   std::to_string(toggles.back()) + " changes)");
    shapeCheck(scores.front() > scores.back(),
               "wide hysteresis latches caps longer and costs score (" +
                   fmtDouble(scores.front(), 0) + " vs " +
                   fmtDouble(scores.back(), 0) + ")");
    return 0;
}
