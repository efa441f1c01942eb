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
 * Both are ratios of two timings taken in one process, so host speed
 * cancels out. A shared host still has slow phases that last seconds,
 * and one that lands on one side of a single pair can push either
 * ratio across its floor. The solver floor is judged on the median of
 * kPairs back-to-back pairs. The cohort floor times B=1 and B=64 in
 * interleaved millisecond slices, so each phase lands on both sides,
 * and is judged on the median of kBatchPairs such pairs. Absolute
 * numbers and their spread are the perf/ harness's job (python3
 * perf/run.py); this binary only keeps the floors. It prints a SHAPE
 * CHECK section and exits non-zero when a floor reads MISS.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accubench/protocol.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "stats/summary.hh"
#include "thermal/rc_network.hh"

using namespace pvar;

namespace
{

constexpr int kPairs = 3;
constexpr int kBatchPairs = 7;

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

/** The cohort engine's jump stage, isolated: `width` same-shape phone
 *  package networks advancing in lockstep on one shared solver. */
class CohortAdvance
{
  public:
    explicit CohortAdvance(std::size_t width) : _width(width)
    {
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
                net->adoptFastSolver(*_nets.front());
            _ptrs.push_back(net.get());
            _nets.push_back(std::move(net));
        }
    }

    /** Time @p reps cohort advances on the engine's segment grid:
     *  awake 250 ms spans with suspended 500 ms spans mixed in. */
    void
    run(int reps)
    {
        const Time spans[4] = {Time::msec(250), Time::msec(250),
                               Time::msec(250), Time::msec(500)};
        _sec += wallSeconds([&] {
            for (int rep = 0; rep < reps; ++rep)
                ThermalNetwork::fastAdvanceBatch(_ptrs.data(), _width,
                                                 spans[rep & 3]);
        });
        _dies += static_cast<std::size_t>(reps) * _width;
    }

    double seconds() const { return _sec; }
    double diesPerSec() const { return static_cast<double>(_dies) / _sec; }

  private:
    std::size_t _width;
    std::vector<std::unique_ptr<ThermalNetwork>> _nets;
    std::vector<ThermalNetwork *> _ptrs;
    double _sec = 0.0;
    std::size_t _dies = 0;
};

/**
 * B=64 over B=1 dies per second, with the two widths timed in
 * interleaved slices of equal die counts (alternating which goes
 * first) until each has run 0.2 s, so a slow host phase lands on both
 * sides of the ratio instead of on one.
 */
double
cohortAdvanceRatio()
{
    CohortAdvance wide(64), narrow(1);
    for (int slice = 0;
         wide.seconds() < 0.2 || narrow.seconds() < 0.2; ++slice) {
        if (slice % 2 == 0) {
            wide.run(32);
            narrow.run(32 * 64);
        } else {
            narrow.run(32 * 64);
            wide.run(32);
        }
    }
    return wide.diesPerSec() / narrow.diesPerSec();
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
    return median(ratios);
}

/** Print a floor's pass/fail line; return whether it held. */
bool
gate(bool ok, const std::string &what)
{
    std::printf("  [%s] %s\n", ok ? " ok " : "MISS", what.c_str());
    return ok;
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Quiet);

    double solver_speedup = medianRatio(
        "stepped s / fast s, serial study",
        [] { return studySeconds(SolverKind::Stepped); },
        [] { return studySeconds(SolverKind::Fast); });
    std::vector<double> batch_ratios;
    for (int i = 0; i < kBatchPairs; ++i) {
        batch_ratios.push_back(cohortAdvanceRatio());
        std::printf("B=64 / B=1 cohort advance dies/s, interleaved pair "
                    "%d: %.2fx\n", i + 1, batch_ratios.back());
    }
    double batch_speedup = median(batch_ratios);

    std::printf("\nSHAPE CHECK:\n");
    bool held = gate(solver_speedup >= 10.0,
                     strfmt("fast solver >= 10x stepped on the serial "
                            "study (median %.2fx)", solver_speedup));
    held &= gate(batch_speedup >= 2.0,
                 strfmt("B=64 cohort advance >= 2x the B=1 rate "
                        "(median %.2fx)", batch_speedup));
    return held ? 0 : 1;
}
