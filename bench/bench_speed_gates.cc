/**
 * @file
 * The two speed floors no test can hold, because they are ratios of
 * wall-clock timings:
 *
 *  - the fast solver runs the reduced Table II study (every SoC, one
 *    iteration, one job) at least 10x faster than the stepped
 *    reference;
 *  - the cohort thermal jump (ThermalNetwork::fastAdvanceBatch over
 *    64 same-topology networks sharing one eigendecomposition) moves
 *    at least 2x the dies per second of the B=1 call.
 *
 * Both are ratios of two timings taken back to back in one process, so
 * host speed cancels out. A shared host still has slow phases that
 * last seconds, and one that lands on one side of a single pair can
 * push either ratio across its floor. Each floor is therefore judged
 * on the median of kPairs pairs. Absolute numbers and their spread
 * are the perf/ harness's job (python3 perf/run.py); this binary only
 * keeps the floors. Like every bench binary it prints a SHAPE CHECK
 * section and exits 0, and a MISS line marks a failure.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "accubench/protocol.hh"
#include "bench_util.hh"
#include "sim/strfmt.hh"
#include "thermal/rc_network.hh"

using namespace pvar;

namespace
{

constexpr int kPairs = 3;

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Wall seconds of one serial reduced study on the given solver. */
double
studySeconds(SolverKind solver)
{
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.jobs = 1;
    cfg.solver = solver;
    return wallSeconds([&] { runFullStudy(cfg); });
}

/** The cohort engine's jump stage, isolated: b same-shape phone
 *  package networks advancing in lockstep on one shared solver. */
double
cohortAdvanceDiesPerSec(std::size_t width)
{
    std::vector<std::unique_ptr<ThermalNetwork>> nets;
    std::vector<ThermalNetwork *> ptrs;
    for (std::size_t d = 0; d < width; ++d) {
        auto net = std::make_unique<ThermalNetwork>();
        double bias = 0.05 * static_cast<double>(d);
        auto die = net->addNode("die", JoulesPerKelvin(2.0),
                                Celsius(40 + bias));
        auto soc = net->addNode("soc", JoulesPerKelvin(22.0),
                                Celsius(35 + bias));
        auto batt = net->addNode("batt", JoulesPerKelvin(40.0),
                                 Celsius(30 + bias));
        auto cas = net->addNode("case", JoulesPerKelvin(60.0),
                                Celsius(30 + bias));
        auto amb = net->addBoundary("amb", Celsius(26));
        net->connect(die, soc, WattsPerKelvin(0.32));
        net->connect(soc, cas, WattsPerKelvin(0.33));
        net->connect(soc, batt, WattsPerKelvin(0.10));
        net->connect(batt, cas, WattsPerKelvin(0.15));
        net->connect(cas, amb, WattsPerKelvin(0.23));
        net->setPower(die, Watts(4.0 + 0.01 * bias));
        net->fastReady();
        if (d > 0)
            net->adoptFastSolver(*nets.front());
        ptrs.push_back(net.get());
        nets.push_back(std::move(net));
    }

    // The engine's segment grid: awake 250 ms spans with suspended
    // 500 ms spans mixed in, as the cohort rounds produce them.
    const Time spans[4] = {Time::msec(250), Time::msec(250),
                           Time::msec(250), Time::msec(500)};
    std::size_t advances = 0;
    double sec = 0.0;
    while (sec < 0.3) {
        sec += wallSeconds([&] {
            for (int rep = 0; rep < 2000; ++rep)
                ThermalNetwork::fastAdvanceBatch(ptrs.data(), width,
                                                 spans[rep & 3]);
        });
        advances += 2000;
    }
    return static_cast<double>(advances * width) / sec;
}

/** Median of kPairs ratios num() / den(), each pair back to back. */
double
medianRatio(const char *what, const std::function<double()> &num,
            const std::function<double()> &den)
{
    std::vector<double> ratios;
    for (int i = 0; i < kPairs; ++i) {
        double n = num();
        double d = den();
        ratios.push_back(n / d);
        std::printf("%s pair %d: %.3g / %.3g = %.2fx\n", what, i + 1, n,
                    d, ratios.back());
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[kPairs / 2];
}

} // namespace

int
main()
{
    benchQuiet();

    double solver_speedup = medianRatio(
        "stepped s / fast s, serial study",
        [] { return studySeconds(SolverKind::Stepped); },
        [] { return studySeconds(SolverKind::Fast); });
    double batch_speedup = medianRatio(
        "B=64 / B=1 cohort advance dies/s",
        [] { return cohortAdvanceDiesPerSec(64); },
        [] { return cohortAdvanceDiesPerSec(1); });

    std::printf("\nSHAPE CHECK:\n");
    shapeCheck(solver_speedup >= 10.0,
               strfmt("fast solver >= 10x stepped on the serial study "
                      "(median %.2fx)", solver_speedup));
    shapeCheck(batch_speedup >= 2.0,
               strfmt("B=64 cohort advance >= 2x the B=1 rate "
                      "(median %.2fx)", batch_speedup));
    return 0;
}
