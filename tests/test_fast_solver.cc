/**
 * @file
 * Tests for the analytic (eigendecomposition) thermal fast path: the
 * solver itself, its agreement with the stepped reference on random
 * networks and on every builtin device, and the direct steady-state
 * solve that now seeds ThermalNetwork::solveSteadyState.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <vector>

#include "accubench/experiment.hh"
#include "device/registry.hh"
#include "device/spec.hh"
#include "sim/rng.hh"
#include "thermal/fast_solver.hh"
#include "thermal/rc_network.hh"

namespace pvar
{
namespace
{

TEST(FastSolver, SingleRcMatchesClosedForm)
{
    // One mass against a boundary: T(t) = T_ss + (T0 - T_ss) e^{-t/tau}
    // with T_ss = T_amb + P/G and tau = C/G. The analytic path must
    // reproduce the closed form to solver precision, not integrator
    // precision.
    const double cap = 10.0, g = 2.0, p = 3.0;
    const double t_amb = 20.0, t0 = 60.0;
    FastThermalSolver solver;
    ASSERT_TRUE(solver.build({cap, 0.0}, {FastSolverEdge{0, 1, g}}));
    EXPECT_EQ(solver.interiorCount(), 1u);

    for (double dt : {0.01, 0.5, 7.0, 300.0}) {
        std::vector<double> temps{t0, t_amb};
        std::vector<double> powers{p, 0.0};
        solver.advance(temps, powers, dt);
        double t_ss = t_amb + p / g;
        double expected = t_ss + (t0 - t_ss) * std::exp(-dt * g / cap);
        EXPECT_NEAR(temps[0], expected, 1e-9) << "dt=" << dt;
        EXPECT_EQ(temps[1], t_amb); // boundary never moves
    }
}

TEST(FastSolver, LeakageFrozenJumpMatchesManySmallJumps)
{
    // With power held constant (leakage frozen) the advance is a
    // semigroup: one 10 s jump must equal 1000 jumps of 10 ms to
    // numerical precision. This is the exactness contract that lets
    // the simulator take arbitrarily long event-to-event strides.
    FastThermalSolver solver;
    std::vector<double> caps{2.0, 25.0, 45.0, 70.0, 0.0};
    std::vector<FastSolverEdge> edges{
        {0, 1, 0.50}, {1, 3, 0.33}, {1, 2, 0.10},
        {2, 3, 0.15}, {3, 4, 0.24}};
    ASSERT_TRUE(solver.build(caps, edges));

    std::vector<double> powers{2.5, 0.4, 0.1, 0.0, 0.0};
    std::vector<double> one{55.0, 40.0, 33.0, 30.0, 26.0};
    std::vector<double> many = one;

    solver.advance(one, powers, 10.0);
    for (int i = 0; i < 1000; ++i)
        solver.advance(many, powers, 0.010);

    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_NEAR(one[i], many[i], 1e-9) << "node " << i;
}

TEST(FastSolver, SteadyStateRefusesSingularSystem)
{
    // No boundary anywhere: injected power has nowhere to go, so no
    // steady state exists and the direct solve must refuse rather
    // than divide by a zero eigenvalue.
    FastThermalSolver solver;
    ASSERT_TRUE(solver.build({1.0, 10.0}, {FastSolverEdge{0, 1, 1.0}}));
    std::vector<double> temps{25.0, 25.0};
    std::vector<double> powers{3.0, 0.0};
    EXPECT_FALSE(solver.steadyState(temps, powers));
    EXPECT_EQ(temps[0], 25.0);
    EXPECT_EQ(temps[1], 25.0);
}

TEST(FastSolver, RandomizedNetworksMatchStepped)
{
    // Property test: on random RC trees (plus chords) with random
    // capacitances, conductances and powers, one analytic jump agrees
    // with the stepped integrator's substepped Euler to within the
    // integrator's own discretization error.
    Rng rng(0xfa57);
    for (int trial = 0; trial < 20; ++trial) {
        int n = 2 + static_cast<int>(rng.uniform() * 5); // 2..6 masses
        ThermalNetwork stepped;
        FastThermalSolver fast;
        std::vector<double> caps;
        std::vector<FastSolverEdge> edges;
        std::vector<ThermalNodeId> ids;
        std::vector<double> temps, powers;

        for (int i = 0; i < n; ++i) {
            double cap = 0.5 + rng.uniform() * 50.0;
            double t0 = 20.0 + rng.uniform() * 40.0;
            ids.push_back(stepped.addNode("m", JoulesPerKelvin(cap),
                                          Celsius(t0)));
            caps.push_back(cap);
            temps.push_back(t0);
            double p = rng.uniform() * 4.0;
            stepped.setPower(ids.back(), Watts(p));
            powers.push_back(p);
        }
        ids.push_back(stepped.addBoundary("amb", Celsius(25.0)));
        caps.push_back(0.0);
        temps.push_back(25.0);
        powers.push_back(0.0);

        // Spanning tree to the boundary plus a few random chords.
        for (int i = 0; i < n; ++i) {
            std::size_t other =
                (i == 0) ? static_cast<std::size_t>(n)
                         : static_cast<std::size_t>(rng.uniform() * i);
            double g = 0.05 + rng.uniform() * 2.0;
            stepped.connect(ids[i], ids[other], WattsPerKelvin(g));
            edges.push_back(FastSolverEdge{static_cast<std::size_t>(i),
                                           other, g});
        }

        ASSERT_TRUE(fast.build(caps, edges));
        double horizon = 3.0;
        fast.advance(temps, powers, horizon);
        for (int i = 0; i < 300; ++i)
            stepped.step(Time::msec(10));

        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(stepped.temperature(ids[i]).value(), temps[i],
                        0.15)
                << "trial " << trial << " node " << i;
    }
}

TEST(ThermalNetwork, FastAdvanceAndPreviewAgreeWithStepped)
{
    auto build = [](ThermalNetwork &net, std::vector<ThermalNodeId> &id) {
        id.push_back(net.addNode("die", JoulesPerKelvin(2.0),
                                 Celsius(45.0)));
        id.push_back(net.addNode("case", JoulesPerKelvin(70.0),
                                 Celsius(30.0)));
        id.push_back(net.addBoundary("amb", Celsius(26.0)));
        net.connect(id[0], id[1], WattsPerKelvin(0.5));
        net.connect(id[1], id[2], WattsPerKelvin(0.24));
        net.setPower(id[0], Watts(2.0));
    };
    ThermalNetwork fast, stepped;
    std::vector<ThermalNodeId> fid, sid;
    build(fast, fid);
    build(stepped, sid);

    // Preview must not move any node.
    Celsius later = fast.fastPreview(fid[0], Time::sec(2));
    EXPECT_EQ(fast.temperature(fid[0]).value(), 45.0);
    EXPECT_NE(later.value(), 45.0);

    fast.fastAdvance(Time::sec(2));
    for (int i = 0; i < 200; ++i)
        stepped.step(Time::msec(10));
    EXPECT_NEAR(fast.temperature(fid[0]).value(), later.value(), 1e-12);
    EXPECT_NEAR(fast.temperature(fid[0]).value(),
                stepped.temperature(sid[0]).value(), 0.05);
    EXPECT_NEAR(fast.temperature(fid[1]).value(),
                stepped.temperature(sid[1]).value(), 0.05);
}

// Reference Gauss-Seidel on the five-node phone package, the exact
// sweep solveSteadyState ran before the direct seed existed.
double
referenceGaussSeidel(const PackageParams &pp, Celsius ambient,
                     const std::vector<double> &powers, double tolerance,
                     int max_iters, std::vector<double> &temps)
{
    // Nodes: 0 die, 1 soc, 2 battery, 3 case, 4 ambient (boundary).
    struct E { int a, b; double g; };
    std::vector<E> edges{{0, 1, pp.dieToSoc},
                         {1, 3, pp.socToCase},
                         {1, 2, pp.socToBattery},
                         {2, 3, pp.batteryToCase},
                         {3, 4, pp.caseToAmbient}};
    temps.assign(5, ambient.value());
    double worst = 0.0;
    for (int iter = 0; iter < max_iters; ++iter) {
        worst = 0.0;
        for (int i = 0; i < 4; ++i) {
            double g_total = 0.0, g_weighted = 0.0;
            for (const E &e : edges) {
                if (e.a != i && e.b != i)
                    continue;
                int other = e.a == i ? e.b : e.a;
                g_total += e.g;
                g_weighted += e.g * temps[other];
            }
            double updated = (g_weighted + powers[i]) / g_total;
            worst = std::max(worst, std::fabs(updated - temps[i]));
            temps[i] = updated;
        }
        if (worst < tolerance)
            break;
    }
    return worst;
}

TEST(FastSolver, SteadyStateSeedBeatsIterativeOnAllBuiltinPackages)
{
    // Regression for the direct-solve satellite: on every builtin
    // device package the seeded solveSteadyState must report a
    // residual no worse than the purely iterative path's, and land on
    // the same temperatures.
    const std::vector<double> powers{2.0, 0.3, 0.1, 0.0};
    for (const RegistryEntry &entry : DeviceRegistry::builtin().entries()) {
        std::unique_ptr<Device> device =
            buildDevice(entry.spec, entry.units.at(0));
        PhonePackage &pkg = device->thermalPackage();
        pkg.setCpuPower(Watts(powers[0]));
        pkg.setBoardPower(Watts(powers[1]));
        pkg.setBatteryPower(Watts(powers[2]));

        double residual = -1.0;
        ASSERT_TRUE(pkg.network().solveSteadyState(1e-6, 20000, &residual))
            << entry.spec.socName;

        std::vector<double> ref;
        double ref_residual = referenceGaussSeidel(
            device->config().package, pkg.ambientTemp(), powers, 1e-6,
            20000, ref);

        EXPECT_LE(residual, ref_residual) << entry.spec.socName;
        EXPECT_NEAR(pkg.dieTemp().value(), ref[0], 1e-4)
            << entry.spec.socName;
        EXPECT_NEAR(pkg.caseTemp().value(), ref[3], 1e-4)
            << entry.spec.socName;
    }
}

// Experiment phases as [start, end) spans, taken from the "phase"
// marker channel; a synthetic span covers the stabilization period
// before the first marker.
struct PhaseSpan
{
    Time start;
    Time end;
};

std::vector<PhaseSpan>
phaseSpans(const Trace &trace, Time trace_end)
{
    const auto &marks = trace.channel("phase").samples();
    std::vector<PhaseSpan> spans;
    spans.push_back({Time::zero(),
                     marks.empty() ? trace_end : marks.front().when});
    for (std::size_t i = 0; i < marks.size(); ++i) {
        Time end = i + 1 < marks.size() ? marks[i + 1].when : trace_end;
        spans.push_back({marks[i].when, end});
    }
    return spans;
}

// Largest |a - b| over nearest-in-time sample pairs, aligned phase by
// phase: the two solvers exit the cooldown phase at different 5 s
// polls, which shifts every later phase in absolute time, so samples
// are matched at equal offsets from their own phase start.
double
maxPhaseAlignedDiff(const Trace &ta, const Trace &tb, const char *ch,
                    Time window)
{
    const TraceChannel &ca = ta.channel(ch);
    const TraceChannel &cb = tb.channel(ch);
    std::vector<PhaseSpan> sa = phaseSpans(ta, ca.samples().back().when);
    std::vector<PhaseSpan> sb = phaseSpans(tb, cb.samples().back().when);
    EXPECT_EQ(sa.size(), sb.size());

    double worst = 0.0;
    for (std::size_t k = 0; k < std::min(sa.size(), sb.size()); ++k) {
        Time len_b = sb[k].end - sb[k].start;
        for (const Sample &s : ca.samples()) {
            if (s.when < sa[k].start || s.when >= sa[k].end)
                continue;
            Time rel = s.when - sa[k].start;
            if (rel > len_b)
                continue; // beyond the other solver's shorter phase
            Time target = sb[k].start + rel;
            double best_gap = std::numeric_limits<double>::infinity();
            double best_value = 0.0;
            for (const Sample &t : cb.samples()) {
                double gap = std::fabs((t.when - target).toSec());
                if (gap < best_gap) {
                    best_gap = gap;
                    best_value = t.value;
                }
            }
            EXPECT_LE(best_gap, window.toSec());
            worst = std::max(worst, std::fabs(s.value - best_value));
        }
    }
    return worst;
}

TEST(FastSolver, FullExperimentMatchesSteppedOnAllBuiltins)
{
    // The accuracy contract of the fast path, end to end: for every
    // builtin device spec, a full experiment run with --solver fast
    // agrees with the stepped reference on score and energy to 1% and
    // on the die/case temperature traces to 3 C at nearest-in-time
    // samples. (Bit-identity is NOT expected: the two solvers observe
    // sensor noise on different grids.)
    for (const RegistryEntry &entry : DeviceRegistry::builtin().entries()) {
        ExperimentConfig cfg;
        cfg.iterations = 1;
        cfg.supply = SupplyChoice::MonsoonExplicit;
        cfg.monsoonVoltage = entry.monsoonVoltage;

        std::unique_ptr<Device> d_stepped =
            buildDevice(entry.spec, entry.units.at(0));
        ExperimentResult r_stepped = runExperiment(*d_stepped, cfg);

        cfg.solver = SolverKind::Fast;
        std::unique_ptr<Device> d_fast =
            buildDevice(entry.spec, entry.units.at(0));
        ExperimentResult r_fast = runExperiment(*d_fast, cfg);
        EXPECT_EQ(d_fast->picardFallbacks(), 0u) << entry.spec.socName;

        ASSERT_EQ(r_stepped.iterations.size(), 1u);
        ASSERT_EQ(r_fast.iterations.size(), 1u);
        const IterationResult &is = r_stepped.iterations[0];
        const IterationResult &im = r_fast.iterations[0];

        EXPECT_NEAR(im.score, is.score, 0.01 * is.score)
            << entry.spec.socName;
        EXPECT_NEAR(im.workloadEnergy.value(), is.workloadEnergy.value(),
                    0.01 * is.workloadEnergy.value())
            << entry.spec.socName;
        EXPECT_NEAR(im.peakWorkloadTemp.value(),
                    is.peakWorkloadTemp.value(), 3.0)
            << entry.spec.socName;

        for (const char *ch : {"die_temp", "case_temp"}) {
            double worst = maxPhaseAlignedDiff(
                *r_stepped.trace, *r_fast.trace, ch, Time::msec(600));
            EXPECT_LE(worst, 3.0)
                << entry.spec.socName << " channel " << ch;
        }
    }
}

} // namespace
} // namespace pvar
