/**
 * @file
 * The paper's claims as tests: one case per table, figure, section,
 * ablation and extension of the reproduction. Each case prints the
 * regenerated rows/series next to the paper's reference values and a
 * SHAPE CHECK section; a claim that misses fails the case.
 *
 * Cases whose simulation depends on the thermal solver run once per
 * solver (`Paper/BySolver.<case>/stepped` and `.../fast`); the rest
 * run once (`Paper.<case>`). gtest's --gtest_filter selects cases.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "accubench/experiment.hh"
#include "accubench/phase_windows.hh"
#include "accubench/protocol.hh"
#include "accubench/ranking.hh"
#include "bench_util.hh"
#include "device/catalog.hh"
#include "device/fleet.hh"
#include "dist_figure.hh"
#include "report/figure.hh"
#include "report/table.hh"
#include "sampling/crowd.hh"
#include "sampling/lower_bound.hh"
#include "silicon/binning.hh"
#include "silicon/process_node.hh"
#include "silicon/variation_model.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "soc_figure.hh"
#include "stats/summary.hh"
#include "thermabox/thermabox.hh"

namespace pvar
{

/** Name the solver in gtest's listing (and so in ctest's test names). */
void
PrintTo(SolverKind kind, std::ostream *os)
{
    *os << solverKindName(kind);
}

namespace
{

/** A case whose simulation runs on the parameter's thermal solver. */
class BySolver : public ::testing::TestWithParam<SolverKind>
{
};

/*
 * Table I: voltage vs frequency across Nexus 5 CPU bins -- twice.
 * First the table as shipped in the kernel (embedded in the catalog),
 * then a table *generated* by running this library's voltage-binning
 * flow over a sampled 28 nm die lot, demonstrating that the binning
 * algorithm reproduces the published structure.
 */

const double tableFreqs[] = {300, 729, 960, 1574, 2265};

void
printKernelTable()
{
    Table t({"Bin", "300", "729", "960", "1574", "2265"});
    for (int bin = 0; bin <= 6; ++bin) {
        std::vector<std::string> row = {"Bin-" + std::to_string(bin)};
        for (double f : tableFreqs)
            row.push_back(fmtDouble(nexus5TableIMillivolts(bin, f), 0));
        t.addRow(row);
    }
    std::printf("%s", t.render().c_str());
}

VoltageBinningResult
generateFromLot()
{
    VariationModel model(node28nmHPm());
    Rng rng(20190324); // ISPASS'19 vintage seed
    auto lot = model.sampleLot(rng, 1000, "sd800");

    VoltageBinningConfig cfg;
    for (double f : tableFreqs)
        cfg.frequencyLadder.push_back(MegaHertz(f));
    cfg.binCount = 7;
    cfg.guardBand = 0.025;
    cfg.quantum = 0.005;
    cfg.vCeiling = Volts(1.15);
    cfg.vFloor = Volts(0.75); // the paper's tables bottom out at 750 mV
    return voltageBin(lot, cfg);
}

TEST(Paper, table1_voltage_bins)
{
    std::printf("%s", figureHeader(
        "Table I: Voltage vs. Frequency across bins (Nexus 5)",
        "bin-0 slowest/highest voltage ... bin-6 fastest/lowest; "
        "voltages 750-1100 mV, monotone in both axes").c_str());

    std::printf("\nAs shipped in kernel sources (catalog data):\n");
    printKernelTable();

    std::printf("\nGenerated by libpvar voltage binning over a sampled "
                "1000-die 28 nm lot:\n");
    VoltageBinningResult gen = generateFromLot();
    Table t({"Bin", "300", "729", "960", "1574", "2265", "# dies"});
    std::vector<int> population(gen.binTables.size(), 0);
    for (int a : gen.assignment) {
        if (a >= 0)
            ++population[static_cast<std::size_t>(a)];
    }
    for (std::size_t b = 0; b < gen.binTables.size(); ++b) {
        std::vector<std::string> row = {"Bin-" + std::to_string(b)};
        for (double f : tableFreqs) {
            row.push_back(fmtDouble(
                gen.binTables[b].voltageFor(MegaHertz(f)).toMillivolts(),
                0));
        }
        row.push_back(std::to_string(population[b]));
        t.addRow(row);
    }
    std::printf("%s", t.render().c_str());
    std::printf("(%zu dies scrapped during the screen)\n", gen.scrapped);

    std::printf("\nSHAPE CHECK vs paper:\n");
    bool monotone_bins = true;
    for (std::size_t b = 0; b + 1 < gen.binTables.size(); ++b) {
        for (double f : tableFreqs) {
            // Tolerate a single fuse quantum of inversion: bins are
            // ranked by top-frequency need, and threshold-voltage
            // scatter can flip one 5 mV step at other frequencies.
            if (gen.binTables[b].voltageFor(MegaHertz(f)).value() + 0.0051 <
                gen.binTables[b + 1].voltageFor(MegaHertz(f)).value())
                monotone_bins = false;
        }
    }
    paperCheck(monotone_bins,
               "bin-0 fuses the highest voltage at every frequency");

    double top_spread =
        gen.binTables.front().voltageFor(MegaHertz(2265)).toMillivolts() -
        gen.binTables.back().voltageFor(MegaHertz(2265)).toMillivolts();
    paperCheck(top_spread > 40 && top_spread < 350,
               "bin spread at 2265 MHz is " + fmtDouble(top_spread, 0) +
                   " mV (paper: 150 mV)");

    double lo = gen.binTables.back().voltageFor(MegaHertz(300))
                    .toMillivolts();
    double hi = gen.binTables.front().voltageFor(MegaHertz(2265))
                    .toMillivolts();
    paperCheck(lo >= 740 && hi < 1250,
               "fused voltages span " + fmtDouble(lo, 0) + "-" +
                   fmtDouble(hi, 0) + " mV (paper: 750-1100 mV)");
}

/*
 * Fig 1: energy, performance and temperature variation across Nexus 5
 * CPU bins for a fixed amount of work.
 *
 * The paper's framing is fixed-work ("bin-4 consumes 20% more energy
 * while also taking 18% longer"); ACCUBENCH runs fixed-duration, so
 * this case converts: time-per-iteration and energy-per-iteration
 * under the UNCONSTRAINED workload are exactly the fixed-work
 * quantities, scaled by the (identical) work amount.
 *
 * A bin-4 unit is synthesized for this figure -- it is the unit that
 * died during the paper's later experiments (§IV-A1), so Fig 1 is the
 * only place it appears.
 */
TEST_P(BySolver, fig1_nexus5_bins)
{
    std::printf("%s", figureHeader(
        "Fig 1: Energy, performance and temperature across Nexus 5 bins",
        "bin-4 ~20% more energy and ~18% more time than bin-0; core "
        "shutdown once 80C is reached").c_str());

    // The study fleet's four corners plus the ill-fated bin-4 unit.
    const UnitCorner units[] = {
        {"bin-0", -1.75, +0.15, 0.0, 0},
        {"bin-1", -0.70, -0.10, 0.0, 1},
        {"bin-2", +0.30, +0.10, 0.0, 2},
        {"bin-3", +1.25, +0.10, 0.0, 3},
        {"bin-4", +1.80, +0.45, 0.0, 4},
    };

    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::Unconstrained;
    cfg.iterations = 3;
    cfg.solver = GetParam();

    Table t({"Bin", "s/iteration", "J/iteration", "peak temp C",
             "core shutdowns"});
    std::vector<double> sec_per_iter, joule_per_iter;
    std::vector<bool> shutdown_seen;

    for (const auto &unit : units) {
        auto device = makeUnitForSoc("SD-800", unit);
        ExperimentResult r = runExperiment(*device, cfg);

        double spi =
            r.iterations[1].workloadTime.toSec() / r.iterations[1].score;
        double jpi = r.meanWorkloadEnergy().value() / r.meanScore();
        double peak = 0.0;
        for (const auto &it : r.iterations)
            peak = std::max(peak, it.peakWorkloadTemp.value());
        bool shutdown =
            r.trace->channel("online_cores").min() < 3.5;

        sec_per_iter.push_back(spi);
        joule_per_iter.push_back(jpi);
        shutdown_seen.push_back(shutdown);
        t.addRow({unit.id, fmtDouble(spi, 3), fmtDouble(jpi, 2),
                  fmtDouble(peak, 1), shutdown ? "yes" : "no"});
    }
    std::printf("%s", t.render().c_str());

    BarFigure time_fig("Fig 1 (time for fixed work, normalized to bin-0)",
                       "s/iter");
    BarFigure energy_fig(
        "Fig 1 (energy for fixed work, normalized to bin-0)", "J/iter");
    for (std::size_t i = 0; i < std::size(units); ++i) {
        time_fig.addBar(units[i].id, sec_per_iter[i]);
        energy_fig.addBar(units[i].id, joule_per_iter[i]);
    }
    std::printf("\n%s", time_fig.render(false).c_str());
    std::printf("\n%s", energy_fig.render(false).c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    double time_excess = sec_per_iter[4] / sec_per_iter[0] - 1.0;
    double energy_excess = joule_per_iter[4] / joule_per_iter[0] - 1.0;
    paperCheck(time_excess > 0.10 && time_excess < 0.45,
               "bin-4 takes " + fmtPercent(time_excess * 100.0) +
                   " longer (paper: ~18%)");
    paperCheck(energy_excess > 0.10 && energy_excess < 0.60,
               "bin-4 uses " + fmtPercent(energy_excess * 100.0) +
                   " more energy (paper: ~20%)");
    paperCheck(shutdown_seen[4],
               "bin-4 triggers the core-shutdown rule (paper: at 80C)");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < std::size(units); ++i)
        monotone &= sec_per_iter[i] <= sec_per_iter[i + 1] * 1.005;
    paperCheck(monotone, "time per iteration grows with bin number");
}

/*
 * Fig 2: energy scaling with ambient temperature on two different
 * devices running at maximum frequency.
 *
 * The chamber target sweeps 10-42 C; for each ambient, the energy to
 * complete the same amount of work (J/iteration) is reported relative
 * to the coolest point. The paper observes 25-30% extra energy at high
 * ambient, on every device tested.
 */

struct SweepPoint
{
    double ambient;
    double joulePerIter;
};

std::vector<SweepPoint>
sweep(Device &device, MegaHertz pinned,
      const std::vector<double> &ambients, SolverKind solver)
{
    // FIXED-FREQUENCY keeps the work identical at every ambient: the
    // energy difference is pure leakage (plus its thermal feedback).
    // Under free DVFS the comparison would be confounded: throttling
    // at high ambient moves the device to a lower, more efficient
    // operating point.
    std::vector<SweepPoint> points;
    for (double amb : ambients) {
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::FixedFrequency;
        cfg.fixedFrequency = pinned;
        cfg.iterations = 2;
        cfg.solver = solver;
        cfg.thermabox.target = Celsius(amb);
        // The cooldown target must stay reachable above the ambient.
        cfg.accubench.cooldownTarget = Celsius(amb + 8.0);
        ExperimentResult r = runExperiment(device, cfg);
        points.push_back(
            {amb, r.meanWorkloadEnergy().value() / r.meanScore()});
    }
    return points;
}

TEST_P(BySolver, fig2_ambient_energy)
{
    std::printf("%s", figureHeader(
        "Fig 2: Energy scaling with ambient temperature (max frequency)",
        "same work costs 25-30% more energy at high ambient; the trend "
        "holds across devices").c_str());

    const std::vector<double> ambients = {10, 18, 26, 34, 42};

    auto nexus5 = makeUnitForSoc(
        "SD-800", UnitCorner{"N5-bin2", +0.30, +0.10, 0.0, 2});
    auto nexus6p = makeUnitForSoc(
        "SD-810", UnitCorner{"6P-520", 0.0, 0.0, 0.0});

    Table t({"Ambient C", "Nexus 5 J/iter", "(rel)", "Nexus 6P J/iter",
             "(rel)"});
    auto n5 = sweep(*nexus5, MegaHertz(1190), ambients, GetParam());
    auto px = sweep(*nexus6p, MegaHertz(864), ambients, GetParam());
    for (std::size_t i = 0; i < ambients.size(); ++i) {
        t.addRow({fmtDouble(ambients[i], 0),
                  fmtDouble(n5[i].joulePerIter, 2),
                  fmtDouble(n5[i].joulePerIter / n5[0].joulePerIter, 3),
                  fmtDouble(px[i].joulePerIter, 2),
                  fmtDouble(px[i].joulePerIter / px[0].joulePerIter, 3)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    double n5_rise = n5.back().joulePerIter / n5.front().joulePerIter - 1;
    double px_rise = px.back().joulePerIter / px.front().joulePerIter - 1;
    paperCheck(n5_rise > 0.15,
               "Nexus 5: " + fmtPercent(n5_rise * 100.0) +
                   " more energy at 42C than 10C (paper: 25-30%)");
    paperCheck(px_rise > 0.10,
               "Nexus 6P: " + fmtPercent(px_rise * 100.0) +
                   " more energy at 42C than 10C (effect holds across "
                   "devices)");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < n5.size(); ++i)
        monotone &= n5[i].joulePerIter <= n5[i + 1].joulePerIter * 1.01;
    paperCheck(monotone, "energy rises monotonically with ambient");
}

/*
 * Fig 3: the THERMABOX controlled thermal environment holding
 * 26 +/- 0.5 C around a working device.
 *
 * Fig 3 itself is an apparatus photo; the reproducible content is the
 * chamber's regulation quality, which this case demonstrates with a
 * device dissipating full CPU power inside the box, a setpoint
 * change, and the resulting duty cycles.
 */
TEST(Paper, fig3_thermabox)
{
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
    paperCheck(min_air >= 26.0 - 0.75 && max_air <= 26.0 + 0.75,
               "air stayed in " + fmtDouble(min_air, 2) + ".." +
                   fmtDouble(max_air, 2) +
                   " C while absorbing device heat (paper: +/-0.5 C)");
    paperCheck(reached, "chamber re-stabilizes after a setpoint change");
}

/*
 * Fig 4: the stages of ACCUBENCH during an UNCONSTRAINED workload on a
 * Nexus 5 -- warmup heats the CPU into throttling, cooldown normalizes
 * the thermal state, then the scored workload throttles again.
 */
TEST(Paper, fig4_unconstrained_trace)
{
    std::printf("%s", figureHeader(
        "Fig 4: ACCUBENCH stages, UNCONSTRAINED workload (Nexus 5)",
        "CPU throttles quickly during warmup and workload; cooldown "
        "drops the die to the target temperature").c_str());

    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
    ExperimentConfig cfg; // paper defaults: 3 min warmup, 5 min workload
    cfg.iterations = 1;
    cfg.supply = SupplyChoice::Battery;
    ExperimentResult run = runExperiment(*device, cfg);
    const IterationResult &r = run.iterations.at(0);
    const Trace &trace = *run.trace;

    std::printf("\nPhase summary:\n");
    std::printf("  warmup   %6.1f s\n", r.warmupTime.toSec());
    std::printf("  cooldown %6.1f s (reached %.1fC target: %s)\n",
                r.cooldownTime.toSec(),
                cfg.accubench.cooldownTarget.value(),
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

    // Phase windows for the checks; the chamber stabilizes first, so
    // warmup does not start at t = 0.
    auto warmup = phaseWindow(trace, AccubenchPhase::Warmup, 0);
    auto workload = phaseWindow(trace, AccubenchPhase::Workload, 0);
    ASSERT_TRUE(warmup && workload);
    const auto &temp = trace.channel("die_temp");
    const auto &freq = trace.channel("freq_cpu");

    double warmup_peak = -1e9, workload_peak = -1e9;
    double workload_min_freq = 1e12;
    double temp_at_workload_start = 0.0;
    for (const auto &s : temp.samples()) {
        if (s.when >= warmup->begin && s.when <= warmup->end)
            warmup_peak = std::max(warmup_peak, s.value);
        if (s.when >= workload->begin && s.when <= workload->end) {
            workload_peak = std::max(workload_peak, s.value);
            if (temp_at_workload_start == 0.0)
                temp_at_workload_start = s.value;
        }
    }
    for (const auto &s : freq.samples()) {
        if (s.when >= workload->begin && s.when <= workload->end &&
            s.value > 0)
            workload_min_freq = std::min(workload_min_freq, s.value);
    }

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(warmup_peak >= 70.0,
               "warmup drives the die into the throttling region (" +
                   fmtDouble(warmup_peak, 1) + " C)");
    paperCheck(temp_at_workload_start <=
                   cfg.accubench.cooldownTarget.value() + 3,
               "cooldown resets the die near the target before the "
               "workload (" + fmtDouble(temp_at_workload_start, 1) +
                   " C)");
    paperCheck(workload_min_freq < 2265.0,
               "the workload phase throttles below the 2265 MHz top "
               "OPP (min " + fmtDouble(workload_min_freq, 0) + " MHz)");
    paperCheck(workload_peak >= 70.0,
               "the workload re-heats the die into throttling (" +
                   fmtDouble(workload_peak, 1) + " C)");
}

/*
 * Fig 5: thermal characteristics of the FIXED-FREQUENCY workload on a
 * Nexus 5 -- at a pinned low frequency the device never reaches
 * throttling temperatures.
 */
TEST(Paper, fig5_fixedfreq_trace)
{
    std::printf("%s", figureHeader(
        "Fig 5: ACCUBENCH stages, FIXED-FREQUENCY workload (Nexus 5)",
        "at the pinned low frequency the device never heats to "
        "throttling levels").c_str());

    const MegaHertz pinned_freq =
        DeviceRegistry::builtin().at("SD-800").fixedFrequency;
    auto device = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = pinned_freq;
    cfg.iterations = 1;
    cfg.supply = SupplyChoice::Battery;
    ExperimentResult run = runExperiment(*device, cfg);
    const IterationResult &r = run.iterations.at(0);
    const Trace &trace = *run.trace;

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
    paperCheck(peak < 70.0,
               "die peaks at " + fmtDouble(peak, 1) +
                   " C, below every trip point");
    paperCheck(never_throttled,
               "frequency stayed pinned at " + fmtDouble(pinned, 0) +
                   " MHz for the entire run");
    paperCheck(r.peakWorkloadTemp.value() < 70.0,
               "workload phase peak " +
                   fmtDouble(r.peakWorkloadTemp.value(), 1) +
                   " C: no thermal interference with the energy "
                   "measurement");
}

/*
 * Figs 6a/6b: SD-800 (Nexus 5) process variation. The paper's
 * counterintuitive headline lives here: bin-0, fused at the *highest*
 * voltage, is both the fastest and the most energy-frugal unit,
 * because its transistors leak the least.
 */
TEST_P(BySolver, fig6_sd800)
{
    SocFigureSpec spec;
    spec.figureId = "Fig 6";
    spec.socName = "SD-800";
    spec.paperPerfPercent = 14.0;
    spec.paperEnergyPercent = 19.0;
    spec.perfBand[0] = 8.0;
    spec.perfBand[1] = 19.0;
    spec.energyBand[0] = 13.0;
    spec.energyBand[1] = 29.0;
    SocStudy s = runSocFigure(spec, GetParam());

    paperCheck(s.fixedPerfSpreadPercent <= 1.5,
               "fixed-frequency performance spread <= 1.5% (paper: "
               "<= 1.3%)");
    const UnitOutcome &bin0 = s.units.front();
    bool bin0_best = true;
    for (const auto &u : s.units) {
        bin0_best &= bin0.meanScore >= u.meanScore * 0.999 &&
                     bin0.meanFixedEnergyJ <= u.meanFixedEnergyJ * 1.001;
    }
    paperCheck(bin0_best, "bin-0, despite the highest fused voltage, is "
                          "the fastest and most energy-frugal unit");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < s.units.size(); ++i) {
        monotone &= s.units[i].meanScore >= s.units[i + 1].meanScore &&
                    s.units[i].meanFixedEnergyJ <=
                        s.units[i + 1].meanFixedEnergyJ;
    }
    paperCheck(monotone, "score falls and fixed-frequency energy rises "
                         "with bin number");
    paperCheck(s.meanScoreRsdPercent <= 2.0,
               "mean per-unit score RSD stays <= 2% (paper: 1.1% "
               "average error)");
}

/*
 * Figs 7a/7b: SD-810 (Nexus 6P) process variation. All units report
 * "speed-bin 0" and run RBCPR closed-loop voltage; the variation
 * survives anyway: dev-363 is ~10% slower and ~12% hungrier than
 * dev-793.
 */
TEST_P(BySolver, fig7_sd810)
{
    SocFigureSpec spec;
    spec.figureId = "Fig 7";
    spec.socName = "SD-810";
    spec.paperPerfPercent = 10.0;
    spec.paperEnergyPercent = 12.0;
    spec.perfBand[0] = 5.0;
    spec.perfBand[1] = 15.0;
    spec.energyBand[0] = 8.0;
    spec.energyBand[1] = 18.0;
    SocStudy s = runSocFigure(spec, GetParam());

    const UnitOutcome *dev363 = findUnit(s, "dev-363");
    const UnitOutcome *dev793 = findUnit(s, "dev-793");
    paperCheck(dev363 && dev793 &&
                   dev363->meanScore < dev793->meanScore &&
                   dev363->meanFixedEnergyJ > dev793->meanFixedEnergyJ,
               "dev-363 is slower and hungrier than dev-793 (paper "
               "SIV-A2)");
}

/*
 * Figs 8a/8b: SD-820 (LG G5) process variation. The study powers the
 * G5 from the Monsoon at 4.4 V -- its battery's maximum -- because at
 * the nominal 3.85 V the phone's input-voltage throttle would mask
 * the thermal effects entirely (see Fig 10).
 */
TEST_P(BySolver, fig8_sd820)
{
    SocFigureSpec spec;
    spec.figureId = "Fig 8";
    spec.socName = "SD-820";
    spec.paperPerfPercent = 4.0;
    spec.paperEnergyPercent = 10.0;
    spec.perfTolerance = 3.5;
    spec.perfBand[0] = 1.0;
    spec.perfBand[1] = 9.0;
    spec.energyBand[0] = 5.0;
    spec.energyBand[1] = 15.0;
    SocStudy s = runSocFigure(spec, GetParam());

    paperCheck(s.fixedPerfSpreadPercent <= 1.5,
               "fixed-frequency performance spread <= 1.5%");
}

/*
 * Figs 9a/9b: SD-821 (Google Pixel) process variation. Similar
 * character to the SD-820 it tweaks: ~5% performance and ~9% energy
 * spread across three units.
 */
TEST_P(BySolver, fig9_sd821)
{
    SocFigureSpec spec;
    spec.figureId = "Fig 9";
    spec.socName = "SD-821";
    spec.paperPerfPercent = 5.0;
    spec.paperEnergyPercent = 9.0;
    spec.perfTolerance = 4.0;
    spec.perfBand[0] = 2.0;
    spec.perfBand[1] = 10.0;
    spec.energyBand[0] = 4.0;
    spec.energyBand[1] = 14.0;
    SocStudy s = runSocFigure(spec, GetParam());

    const UnitOutcome *dev488 = findUnit(s, "dev-488");
    const UnitOutcome *dev653 = findUnit(s, "dev-653");
    paperCheck(dev488 && dev653 &&
                   dev488->meanScore > dev653->meanScore * 1.02,
               "Fig 11's pair: dev-488 beats dev-653 by more than 2%");
    paperCheck(s.meanScoreRsdPercent <= 2.0,
               "mean per-unit score RSD stays <= 2% (paper: 1.1% "
               "average error)");
}

/*
 * Fig 10: the LG G5's anomalous input-voltage throttling. Powered from
 * a Monsoon programmed to the battery's nominal 3.85 V, the phone
 * benchmarks ~20% below its own battery; programming the battery's
 * 4.4 V maximum restores parity.
 */

double
scoreWith(Device &device, SupplyChoice supply, Volts monsoon_v,
          SolverKind solver)
{
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::Unconstrained;
    cfg.iterations = 2;
    cfg.solver = solver;
    cfg.supply = supply;
    cfg.monsoonVoltage = monsoon_v;
    cfg.batterySoc = 1.0; // fresh charge, as in the paper battery runs
    return runExperiment(device, cfg).meanScore();
}

TEST_P(BySolver, fig10_lgg5_voltage)
{
    std::printf("%s", figureHeader(
        "Fig 10: LG G5 anomalous input-voltage throttling",
        "Monsoon at the nominal 3.85 V performs ~20% below the "
        "battery; Monsoon at 4.4 V restores parity").c_str());

    auto device = makeUnitForSoc(
        "SD-820", UnitCorner{"g5-unit3", 0.0, 0.0, 0.0});

    double monsoon_nominal = scoreWith(
        *device, SupplyChoice::MonsoonExplicit, Volts(3.85), GetParam());
    double monsoon_max = scoreWith(
        *device, SupplyChoice::MonsoonExplicit, Volts(4.40), GetParam());
    double battery =
        scoreWith(*device, SupplyChoice::Battery, Volts(0.0), GetParam());

    BarFigure fig("Fig 10: LG G5 score by power source", "iterations");
    fig.addBar("Monsoon 3.85V", monsoon_nominal);
    fig.addBar("Monsoon 4.40V", monsoon_max);
    fig.addBar("Battery", battery);
    std::printf("\n%s", fig.render(true).c_str());

    double deficit = 1.0 - monsoon_nominal / battery;
    std::printf("\nMonsoon@3.85V deficit vs battery: %s\n",
                fmtPercent(deficit * 100.0).c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(deficit > 0.10 && deficit < 0.35,
               "nominal-voltage Monsoon loses " +
                   fmtPercent(deficit * 100.0) +
                   " vs battery (paper: ~20%)");
    paperCheck(std::abs(monsoon_max / battery - 1.0) < 0.03,
               "4.4 V Monsoon is on par with the battery");
    paperCheck(monsoon_nominal < monsoon_max,
               "raising the programmed voltage removes the throttle");
}

/*
 * Fig 11: frequency and temperature distributions over time for two
 * Google Pixel units. dev-488 delivers ~7% more performance with a
 * matching mean-frequency advantage -- and the counterintuitive part:
 * time-at-temperature alone does not predict who throttles more.
 */
TEST_P(BySolver, fig11_pixel_dist)
{
    std::printf("%s", figureHeader(
        "Fig 11: Pixel frequency/temperature distributions",
        "dev-488 +7% performance, +2-7% mean frequency; time at "
        "temperature is NOT sufficient to predict throttling").c_str());

    auto dev488 = makeUnitForSoc(
        "SD-821", UnitCorner{"dev-488", -0.90, -0.30, 0.0});
    auto dev653 = makeUnitForSoc(
        "SD-821", UnitCorner{"dev-653", +0.90, +0.45, 0.0});

    UnitDistributions a = collectDistributions(
        *dev488, "freq_perf", 1000.0, 2400.0, 74.0, GetParam());
    UnitDistributions b = collectDistributions(
        *dev653, "freq_perf", 1000.0, 2400.0, 74.0, GetParam());

    printDistributionFigure("Fig 11", a, b);

    double perf_delta = a.meanScore / b.meanScore - 1.0;
    double freq_delta = a.meanFreqMhz() / b.meanFreqMhz() - 1.0;

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(perf_delta > 0.02 && perf_delta < 0.15,
               "dev-488 outperforms dev-653 by " +
                   fmtPercent(perf_delta * 100.0) + " (paper: 7%)");
    paperCheck(freq_delta > 0.0,
               "the mean-frequency advantage (" +
                   fmtPercent(freq_delta * 100.0) +
                   ") matches the performance direction");
    paperCheck(std::abs(freq_delta - perf_delta) < 0.05,
               "mean frequency delta tracks the score delta");
}

/*
 * Fig 12: frequency and temperature distributions for two Nexus 5
 * units (bin-1 vs bin-3). The paper observes bin-1 outperforming bin-3
 * by 11% with an 11% higher mean frequency -- i.e., the entire
 * performance difference is throttling, not background activity.
 */
TEST_P(BySolver, fig12_nexus5_dist)
{
    std::printf("%s", figureHeader(
        "Fig 12: Nexus 5 frequency/temperature distributions",
        "bin-1 outperforms bin-3 by 11%; mean frequency is also 11% "
        "higher — the gap is throttling, not background noise").c_str());

    auto bin1 = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-1", -0.70, -0.10, 0.0, 1});
    auto bin3 = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});

    UnitDistributions a = collectDistributions(
        *bin1, "freq_cpu", 1100.0, 2300.0, 73.0, GetParam());
    UnitDistributions b = collectDistributions(
        *bin3, "freq_cpu", 1100.0, 2300.0, 73.0, GetParam());

    printDistributionFigure("Fig 12", a, b);

    double perf_delta = a.meanScore / b.meanScore - 1.0;
    double freq_delta = a.meanFreqMhz() / b.meanFreqMhz() - 1.0;

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(perf_delta > 0.05 && perf_delta < 0.20,
               "bin-1 outperforms bin-3 by " +
                   fmtPercent(perf_delta * 100.0) + " (paper: 11%)");
    paperCheck(freq_delta > 0.03,
               "bin-1's mean frequency is " +
                   fmtPercent(freq_delta * 100.0) + " higher");
    paperCheck(std::abs(freq_delta - perf_delta) < 0.06,
               "mean-frequency delta explains the score delta "
               "(throttling, not background tasks)");
    paperCheck(b.throttling.fractionHot > a.throttling.fractionHot,
               "the leakier unit spends more time hot");
}

/*
 * Fig 13: relative efficiency of the five SoC generations (benchmark
 * iterations per watt-hour, UNCONSTRAINED). The headline: although
 * efficiency improves across process generations overall, the SD-805
 * is *less* efficient than the SD-800 it replaced -- its extra
 * frequency was bought with voltage on the same 28 nm process.
 */
TEST_P(BySolver, fig13_efficiency)
{
    std::printf("%s", figureHeader(
        "Fig 13: Relative efficiency of smartphone SoC generations",
        "efficiency improves overall with process, but the SD-805 is "
        "less efficient than the SD-800").c_str());

    StudyConfig cfg;
    cfg.iterations = 3;
    cfg.solver = GetParam();
    std::vector<SocStudy> studies = runFullStudy(cfg);

    BarFigure fig("Fig 13: efficiency by SoC generation",
                  "iterations/Wh");
    Table t({"Chipset", "Model", "Efficiency (iter/Wh)",
             "Relative to SD-800"});
    double sd800_eff = studies[0].efficiencyIterPerWh;
    for (const auto &s : studies) {
        fig.addBar(s.socName, s.efficiencyIterPerWh);
        t.addRow({s.socName, s.model,
                  fmtDouble(s.efficiencyIterPerWh, 0),
                  fmtDouble(s.efficiencyIterPerWh / sd800_eff, 3)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("%s", fig.render(true).c_str());

    double eff800 = studies[0].efficiencyIterPerWh;
    double eff805 = studies[1].efficiencyIterPerWh;
    double eff810 = studies[2].efficiencyIterPerWh;
    double eff820 = studies[3].efficiencyIterPerWh;
    double eff821 = studies[4].efficiencyIterPerWh;

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(eff805 < eff800,
               "SD-805 is less efficient than its predecessor SD-800");
    paperCheck(eff810 > eff805,
               "the 20 nm SD-810 recovers efficiency over the SD-805");
    paperCheck(eff820 > eff810 && eff821 > eff810,
               "the 14 nm FinFET parts are the most efficient");
    paperCheck(std::max({eff820, eff821}) / eff805 > 1.5,
               "overall efficiency improved substantially across the "
               "five generations");
    paperCheck(eff820 > eff800,
               "the 14 nm SD-820 is more efficient than the SD-800");
}

/*
 * Table II: the summary of energy-performance variations across all
 * five SoC generations, by running the complete study protocol (both
 * workloads, 5 iterations, every unit of every fleet) inside the
 * simulated THERMABOX.
 */

struct PaperRow
{
    const char *soc;
    const char *model;
    int devices;
    double perf;
    double energy;
};

const PaperRow paperRows[] = {
    {"SD-800", "Nexus 5", 4, 14.0, 19.0},
    {"SD-805", "Nexus 6", 3, 2.0, 2.0},
    {"SD-810", "Nexus 6P", 3, 10.0, 12.0},
    {"SD-820", "LG G5", 5, 4.0, 10.0},
    {"SD-821", "Google Pixel", 3, 5.0, 9.0},
};

TEST_P(BySolver, table2_summary)
{
    std::printf("%s", figureHeader(
        "Table II: Summary of energy-performance variations",
        "SD-800 14/19, SD-805 2/2, SD-810 10/12, SD-820 4/10, "
        "SD-821 5/9 (%perf/%energy)").c_str());

    StudyConfig cfg;
    cfg.iterations = 5;
    cfg.solver = GetParam();
    std::vector<SocStudy> studies = runFullStudy(cfg);

    Table t({"Chipset", "Model", "# Devices", "Perf (sim)",
             "Perf (paper)", "Energy (sim)", "Energy (paper)",
             "Mean score RSD"});
    bool all_in_band = true;
    for (std::size_t i = 0; i < studies.size(); ++i) {
        const SocStudy &s = studies[i];
        const PaperRow &p = paperRows[i];
        t.addRow({s.socName, s.model, std::to_string(s.units.size()),
                  fmtPercent(s.perfVariationPercent),
                  fmtPercent(p.perf, 0),
                  fmtPercent(s.energyVariationPercent),
                  fmtPercent(p.energy, 0),
                  fmtPercent(s.meanScoreRsdPercent, 2)});
        if (std::abs(s.perfVariationPercent - p.perf) > 6.0 ||
            std::abs(s.energyVariationPercent - p.energy) > 7.0)
            all_in_band = false;
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(all_in_band,
               "every SoC's perf/energy variation lands within a few "
               "points of Table II");
    paperCheck(studies[0].perfVariationPercent >
                       studies[1].perfVariationPercent &&
                   studies[0].energyVariationPercent >
                       studies[1].energyVariationPercent,
               "the SD-800 varies far more than the SD-805");
    paperCheck(studies[2].perfVariationPercent >
                   studies[3].perfVariationPercent,
               "the 20 nm SD-810 varies more than the 14 nm SD-820");
    double total_units = 0;
    for (const auto &s : studies)
        total_units += static_cast<double>(s.units.size());
    paperCheck(total_units == 18,
               "the study covers the paper's 18 units");
    paperCheck(studies[1].perfVariationPercent <= 5.0 &&
                   studies[1].energyVariationPercent <= 5.0,
               "the SD-805 varies <= 5% on both axes (paper: ~2%, "
               "negligible)");
}

/*
 * The methodology claim of paper §VII: "an average error of 1.1% RSD
 * over roughly 300 iterations of our workloads." Runs many
 * back-to-back ACCUBENCH iterations (both workload modes, several
 * devices) and reports the per-experiment score RSDs and their
 * average.
 */
TEST_P(BySolver, repeatability)
{
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
        cfg.solver = GetParam();
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
    paperCheck(rsd_acc.mean() <= 1.5,
               "average RSD " + fmtPercent(rsd_acc.mean(), 2) +
                   " (paper: 1.1%)");
    paperCheck(rsd_acc.max() <= 3.0,
               "worst per-experiment RSD " +
                   fmtPercent(rsd_acc.max(), 2) +
                   " stays within the paper's reported errors (<=2.63%)");
}

/*
 * The paper's §VI future-work proposal, quantitatively: crowdsourced
 * ACCUBENCH with cooldown-based ambient estimation, strict filtering,
 * and ranking.
 *
 * The paper: "preliminary results on using the cooldown phase as an
 * estimate of ambient temperature are encouraging. This, in addition
 * to strict filters, should enable us to compare different devices
 * from across the world." This case measures how encouraging: the
 * ambient-estimate error across a simulated world fleet, and whether
 * the filtered ranking actually recovers the silicon ordering.
 */
TEST_P(BySolver, svi_crowdsourcing)
{
    std::printf("%s", figureHeader(
        "SVI: crowdsourced binning and ranking (future work)",
        "cooldown-based ambient estimation + strict filters enable "
        "world-wide comparisons").c_str());

    CrowdConfig cfg;
    cfg.socName = "SD-821";
    cfg.units = 16;
    cfg.seed = 4285;
    cfg.solver = GetParam();
    CrowdResult crowd = simulateCrowd(cfg);

    // -- Ambient estimation quality. --------------------------------------
    OnlineSummary err;
    Table t({"Unit", "True ambient", "Estimated", "Error", "Score",
             "Leak factor"});
    for (const auto &o : crowd.outcomes) {
        double e = o.report.ambientValid
                       ? o.report.estimatedAmbientC - o.trueAmbientC
                       : 0.0;
        if (o.report.ambientValid)
            err.add(e);
        t.addRow({o.report.unitId, fmtDouble(o.trueAmbientC, 1),
                  o.report.ambientValid
                      ? fmtDouble(o.report.estimatedAmbientC, 1)
                      : "n/a",
                  o.report.ambientValid ? fmtDouble(e, 1) : "--",
                  fmtDouble(o.report.score, 1),
                  fmtDouble(o.leakFactor, 2)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nAmbient estimate: mean error %+.2f C, worst "
                "|error| %.2f C over %zu valid fits\n",
                err.mean(), std::max(std::abs(err.min()),
                                     std::abs(err.max())),
                err.count());

    // -- Filtered ranking vs silicon ground truth. -------------------------
    RankingConfig rank_cfg;
    rank_cfg.ambientLoC = 16.0;
    rank_cfg.ambientHiC = 34.0;
    auto rankings = rankDevices(crowd.reports(), rank_cfg);
    const auto &ranked = rankings[0].ranked;

    // Within the comparable-ambient window, higher rank should mean
    // lower leakage (the silicon lottery). Count concordant pairs.
    int pairs = 0, concordant = 0;
    for (std::size_t a = 0; a < ranked.size(); ++a) {
        for (std::size_t b = a + 1; b < ranked.size(); ++b) {
            double leak_a = 0, leak_b = 0;
            for (const auto &o : crowd.outcomes) {
                if (o.report.unitId == ranked[a].unitId)
                    leak_a = o.leakFactor;
                if (o.report.unitId == ranked[b].unitId)
                    leak_b = o.leakFactor;
            }
            ++pairs;
            concordant += leak_a < leak_b; // better rank, less leak
        }
    }
    std::printf("\nFiltered ranking: %zu of %d units inside the "
                "16-34C window; %d/%d rank pairs concordant with the "
                "(hidden) leakage ordering\n",
                ranked.size(), cfg.units, concordant, pairs);

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(err.count() >= static_cast<std::size_t>(cfg.units) - 2,
               "the cooldown fit succeeds on nearly every unit");
    paperCheck(std::abs(err.mean()) < 4.0,
               "mean ambient error " + fmtDouble(err.mean(), 1) +
                   " C ('encouraging', as the paper puts it)");
    paperCheck(ranked.size() >= 3,
               "the strict filter leaves a comparable population");
    // Residual ambient spread inside the window still confounds a
    // little -- the paper would filter tighter with more data -- so
    // "well above chance" is the reproducible claim.
    paperCheck(pairs > 0 && concordant * 10 >= pairs * 7,
               "filtered ranking concordant with silicon quality (" +
                   fmtDouble(100.0 * concordant / std::max(pairs, 1),
                             0) +
                   "% of pairs)");
}

/*
 * Paper §VII's third contribution: Table II's variation numbers are
 * *lower bounds*. With only 2-4 units per SoC, the observed spread
 * systematically underestimates the population spread; this
 * Monte-Carlo study over simulated fleets of increasing size shows
 * exactly how much headroom remains.
 */
TEST_P(BySolver, sec7_lower_bound)
{
    std::printf("%s", figureHeader(
        "SVII: observed variation is a lower bound",
        "a larger study may unearth that the full extent of the "
        "variation is greater than Table II reports").c_str());

    LowerBoundConfig cfg;
    cfg.socName = "SD-821";
    cfg.sampleSizes = {2, 3, 5, 8};
    cfg.replicates = 4;
    cfg.seed = 7;
    cfg.solver = GetParam();
    // Short phases keep the Monte-Carlo affordable; the spread
    // statistic only needs the relative ordering.
    cfg.accubench.warmupDuration = Time::minutes(2);
    cfg.accubench.workloadDuration = Time::minutes(3);

    auto points = sampleSizeStudy(cfg);

    Table t({"Fleet size n", "Mean observed spread", "Min", "Max"});
    BarFigure fig("Observed SD-821 performance spread vs fleet size",
                  "% spread");
    for (const auto &p : points) {
        t.addRow({std::to_string(p.sampleSize),
                  fmtPercent(p.meanSpreadPercent),
                  fmtPercent(p.minSpreadPercent),
                  fmtPercent(p.maxSpreadPercent)});
        fig.addBar("n=" + std::to_string(p.sampleSize),
                   p.meanSpreadPercent);
    }
    std::printf("%s\n%s", t.render().c_str(), fig.render(true).c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    bool grows = true;
    for (std::size_t i = 0; i + 1 < points.size(); ++i)
        grows &= points[i].meanSpreadPercent <=
                 points[i + 1].meanSpreadPercent * 1.05;
    paperCheck(grows,
               "observed spread grows with fleet size (small studies "
               "underestimate)");
    paperCheck(points.back().meanSpreadPercent >
                   points[1].meanSpreadPercent * 1.2,
               "an 8-unit study reveals " +
                   fmtPercent(points.back().meanSpreadPercent) +
                   " where a paper-sized 3-unit study sees " +
                   fmtPercent(points[1].meanSpreadPercent));
    paperCheck(points.front().meanSpreadPercent > 0.0,
               "even two devices expose variation (SVII: 'it only "
               "takes two devices')");
}

/*
 * EXTENSION: predicting the next generation (SD-835 / Pixel 2).
 *
 * The paper studied 5 of the 8 Snapdragon generations since 2013 and
 * observed variation shrinking as manufacturing matured (Table II)
 * while efficiency improved (Fig 13). This case runs the identical
 * protocol on a modeled 10 nm SD-835 fleet -- one generation past the
 * paper -- and checks that the library's physics continues both
 * trends. This is a model *prediction*, clearly outside the paper's
 * measured data.
 */
TEST_P(BySolver, ext_sd835)
{
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
    unc.solver = GetParam();

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
    ref_cfg.solver = GetParam();
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
    paperCheck(sd835.perfVariationPercent <=
                   sd821.perfVariationPercent + 1.0,
               "perf variation does not regress: " +
                   fmtPercent(sd835.perfVariationPercent) + " vs " +
                   fmtPercent(sd821.perfVariationPercent));
    paperCheck(sd835.energyVariationPercent <=
                   sd821.energyVariationPercent + 1.0,
               "energy variation does not regress: " +
                   fmtPercent(sd835.energyVariationPercent) + " vs " +
                   fmtPercent(sd821.energyVariationPercent));
    paperCheck(sd835.efficiencyIterPerWh >
                   sd821.efficiencyIterPerWh * 1.1,
               "efficiency improves generation-over-generation");
    paperCheck(sd835.fixedPerfSpreadPercent <= 1.0,
               "the methodology's fixed-frequency sanity holds on the "
               "new model");
}

/*
 * Ablation: the warmup phase (DESIGN.md §6).
 *
 * The paper chose a 3-minute warmup so the first scored iteration
 * starts from the same thermal state as later ones. This case sweeps
 * the warmup duration and reports the iteration-1 score bias and the
 * overall RSD -- without warmup, iteration 1 is visibly inflated
 * (cold device throttles later).
 */
TEST_P(BySolver, ablation_warmup)
{
    std::printf("%s", figureHeader(
        "Ablation: warmup duration",
        "3 minutes was found sufficient for consistent results; "
        "without warmup the first iteration is biased high").c_str());

    const double warmup_minutes[] = {0.0, 1.0, 3.0, 5.0};

    Table t({"Warmup (min)", "Iter-1 score", "Iter-2..4 mean",
             "Iter-1 bias", "Score RSD (all)"});
    double bias_none = 0.0, bias_paper = 0.0;

    for (double wm : warmup_minutes) {
        auto device = makeUnitForSoc(
            "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::Unconstrained;
        cfg.iterations = 4;
        cfg.solver = GetParam();
        cfg.accubench.warmupDuration = Time::minutes(wm);
        ExperimentResult r = runExperiment(*device, cfg);

        double iter1 = r.iterations[0].score;
        OnlineSummary rest;
        for (std::size_t i = 1; i < r.iterations.size(); ++i)
            rest.add(r.iterations[i].score);
        double bias = iter1 / rest.mean() - 1.0;
        if (wm == 0.0)
            bias_none = bias;
        if (wm == 3.0)
            bias_paper = bias;

        t.addRow({fmtDouble(wm, 0), fmtDouble(iter1, 1),
                  fmtDouble(rest.mean(), 1),
                  fmtPercent(bias * 100.0, 2),
                  fmtPercent(r.scoreRsdPercent(), 2)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(bias_none > bias_paper + 0.005,
               "skipping warmup inflates iteration 1 by " +
                   fmtPercent(bias_none * 100.0, 2) + " vs " +
                   fmtPercent(bias_paper * 100.0, 2) +
                   " with the paper's 3 minutes");
    paperCheck(std::abs(bias_paper) < 0.02,
               "with a 3-minute warmup, iteration 1 agrees with "
               "steady state");
}

/*
 * Ablation: the cooldown target temperature (DESIGN.md §6).
 *
 * The cooldown phase pins the thermal state at which every scored
 * workload begins. A higher target shortens the wait but starts the
 * workload hotter (earlier throttling, lower score); skipping the
 * cooldown entirely couples consecutive iterations. The sweep shows
 * score level and repeatability against the target.
 */
TEST_P(BySolver, ablation_cooldown)
{
    std::printf("%s", figureHeader(
        "Ablation: cooldown target temperature",
        "the cooldown normalizes the starting thermal state of every "
        "scored iteration").c_str());

    const double targets_c[] = {30.0, 34.0, 38.0, 44.0, 50.0};

    Table t({"Target (C)", "Mean score", "Score RSD",
             "Mean cooldown (s)", "Start temp (C)"});
    std::vector<double> scores;

    for (double target : targets_c) {
        auto device = makeUnitForSoc(
            "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});
        ExperimentConfig cfg;
        cfg.mode = WorkloadMode::Unconstrained;
        cfg.iterations = 3;
        cfg.solver = GetParam();
        cfg.accubench.cooldownTarget = Celsius(target);
        ExperimentResult r = runExperiment(*device, cfg);

        OnlineSummary cooldown, start;
        for (const auto &it : r.iterations) {
            cooldown.add(it.cooldownTime.toSec());
            start.add(it.tempAtWorkloadStart.value());
        }
        scores.push_back(r.meanScore());
        t.addRow({fmtDouble(target, 0), fmtDouble(r.meanScore(), 1),
                  fmtPercent(r.scoreRsdPercent(), 2),
                  fmtDouble(cooldown.mean(), 0),
                  fmtDouble(start.mean(), 1)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK:\n");
    paperCheck(scores.front() > scores.back(),
               "starting cooler buys a higher score (" +
                   fmtDouble(scores.front(), 0) + " at 30C vs " +
                   fmtDouble(scores.back(), 0) + " at 50C) - the "
                   "refrigerator effect of Guo et al.");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < scores.size(); ++i)
        monotone &= scores[i] >= scores[i + 1] * 0.995;
    paperCheck(monotone, "score decreases monotonically with the "
                         "starting temperature");
}

/*
 * Ablation: the leakage-temperature feedback loop (DESIGN.md §6).
 *
 * Paper §II: "the higher heat dissipation increases the temperature
 * of the device which in turn creates a feedback loop that increases
 * leakage current." This case disables the loop (by flattening the
 * leakage model's temperature dependence) and compares the
 * energy-vs-ambient slope with the full model: without feedback, the
 * Fig 2 ambient sensitivity largely disappears.
 */

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
energyPerIterationAt(Device &device, double ambient, SolverKind solver)
{
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = MegaHertz(1190);
    cfg.iterations = 2;
    cfg.solver = solver;
    cfg.thermabox.target = Celsius(ambient);
    cfg.accubench.cooldownTarget = Celsius(ambient + 8.0);
    ExperimentResult r = runExperiment(device, cfg);
    return r.meanWorkloadEnergy().value() / r.meanScore();
}

TEST_P(BySolver, ablation_feedback)
{
    std::printf("%s", figureHeader(
        "Ablation: leakage-temperature feedback",
        "the feedback loop is what makes energy scale with ambient "
        "(paper SII / Fig 2)").c_str());

    Table t({"Model", "J/iter @ 10C", "J/iter @ 42C", "Increase"});
    double rises[2] = {0, 0};
    int idx = 0;
    for (bool feedback : {true, false}) {
        auto device = buildNexus5(+0.3, feedback);
        double cold = energyPerIterationAt(*device, 10.0, GetParam());
        double hot = energyPerIterationAt(*device, 42.0, GetParam());
        double rise = hot / cold - 1.0;
        rises[idx++] = rise;
        t.addRow({feedback ? "full model" : "feedback disabled",
                  fmtDouble(cold, 2), fmtDouble(hot, 2),
                  fmtPercent(rise * 100.0)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK:\n");
    paperCheck(rises[0] > 0.12,
               "with feedback, hot ambient costs " +
                   fmtPercent(rises[0] * 100.0) +
                   " more energy (paper: 25-30%)");
    paperCheck(rises[1] < rises[0] * 0.5,
               "without feedback the ambient sensitivity collapses to " +
                   fmtPercent(rises[1] * 100.0));
}

/*
 * Ablation: thermal-governor hysteresis width (DESIGN.md §6).
 *
 * Hysteresis trades oscillation against mean frequency: a narrow band
 * releases caps quickly (more cap toggling, temperature rides the
 * trip line), a wide band latches mitigation long after the die has
 * cooled (calmer, but slower). This is the mechanism behind the
 * paper's Pixel observation that time-at-temperature alone cannot
 * predict throttling outcomes.
 */

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

TEST_P(BySolver, ablation_hysteresis)
{
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
        cfg.solver = GetParam();
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
    paperCheck(toggles.front() > toggles.back(),
               "narrow hysteresis toggles the cap more often (" +
                   std::to_string(toggles.front()) + " vs " +
                   std::to_string(toggles.back()) + " changes)");
    paperCheck(scores.front() > scores.back(),
               "wide hysteresis latches caps longer and costs score (" +
                   fmtDouble(scores.front(), 0) + " vs " +
                   fmtDouble(scores.back(), 0) + ")");
}

/*
 * Ablation: workload duty cycle vs. observable process variation.
 *
 * The paper studies a sustained CPU-bound workload because that is
 * where thermal throttling -- and therefore process variation --
 * manifests. This case quantifies the corollary for interactive,
 * bursty use: as the duty cycle drops, devices stop reaching their
 * trip points and the performance gap between a frugal and a leaky
 * die of the same model collapses. Variation is a *sustained-load*
 * phenomenon; two phones can feel identical in light use and differ
 * by >10% under load.
 */

double
scoreWithDuty(Device &device, double duty, SolverKind solver)
{
    ExperimentConfig cfg;
    cfg.mode = WorkloadMode::Unconstrained;
    cfg.iterations = 2;
    cfg.solver = solver;
    cfg.accubench.workload.burstPeriod =
        duty < 1.0 ? Time::sec(10) : Time::zero();
    cfg.accubench.workload.burstDuty = duty;
    return runExperiment(device, cfg).meanScore();
}

TEST_P(BySolver, ablation_bursty)
{
    std::printf("%s", figureHeader(
        "Ablation: duty cycle vs observable variation",
        "process variation manifests under sustained load; bursty "
        "(interactive) use masks it").c_str());

    auto frugal = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-0", -1.75, +0.15, 0.0, 0});
    auto leaky = makeUnitForSoc(
        "SD-800", UnitCorner{"bin-3", +1.25, +0.10, 0.0, 3});

    const double duties[] = {0.3, 0.5, 0.7, 1.0};
    Table t({"Duty cycle", "bin-0 score", "bin-3 score",
             "observable gap"});
    std::vector<double> gaps;

    for (double duty : duties) {
        double s0 = scoreWithDuty(*frugal, duty, GetParam());
        double s3 = scoreWithDuty(*leaky, duty, GetParam());
        double gap = (s0 - s3) / s0 * 100.0;
        gaps.push_back(gap);
        t.addRow({fmtPercent(duty * 100.0, 0), fmtDouble(s0, 1),
                  fmtDouble(s3, 1), fmtPercent(gap)});
    }
    std::printf("%s", t.render().c_str());

    std::printf("\nSHAPE CHECK:\n");
    paperCheck(gaps.back() > 8.0,
               "under sustained load the bin gap is " +
                   fmtPercent(gaps.back()) + " (the Fig 6a result)");
    paperCheck(gaps.front() < gaps.back() * 0.4,
               "at 30% duty the gap collapses to " +
                   fmtPercent(gaps.front()) +
                   " - light use masks the silicon lottery");
    bool monotone = true;
    for (std::size_t i = 0; i + 1 < gaps.size(); ++i)
        monotone &= gaps[i] <= gaps[i + 1] + 1.0;
    paperCheck(monotone, "the gap grows with duty cycle");
}

INSTANTIATE_TEST_SUITE_P(
    Paper, BySolver,
    ::testing::Values(SolverKind::Stepped, SolverKind::Fast),
    [](const ::testing::TestParamInfo<SolverKind> &solver) {
        return std::string(solverKindName(solver.param));
    });

// The check itself: a miss prints its MISS line and fails the case.

TEST(PaperCheck, MissPrintsAndRecordsAFailure)
{
    ::testing::internal::CaptureStdout();
    EXPECT_NONFATAL_FAILURE(paperCheck(false, "planted"), "planted");
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("  [MISS] planted\n"), std::string::npos) << out;
}

TEST(PaperCheck, OkRecordsNothing)
{
    ::testing::internal::CaptureStdout();
    paperCheck(true, "held");
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(out, "  [ ok ] held\n");
    EXPECT_FALSE(HasFailure());
}

} // namespace
} // namespace pvar

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    pvar::setLogLevel(pvar::LogLevel::Quiet);
    return RUN_ALL_TESTS();
}
