/**
 * @file
 * Shared implementation for the per-SoC variation figures
 * (paper Figs 6-9): run the study protocol on one SoC's fleet and
 * print the normalized performance and energy panels with shape
 * checks against the paper's numbers and the calibration bands.
 */

#ifndef PVAR_BENCH_SOC_FIGURE_HH
#define PVAR_BENCH_SOC_FIGURE_HH

#include <cstdio>
#include <string>

#include "accubench/protocol.hh"
#include "bench_util.hh"
#include "report/figure.hh"
#include "report/table.hh"

namespace pvar
{

/** Paper reference numbers for one SoC figure. */
struct SocFigureSpec
{
    std::string figureId;
    std::string socName;
    double paperPerfPercent;
    double paperEnergyPercent;
    /** Acceptance half-width around the paper number (points). */
    double perfTolerance = 5.0;
    double energyTolerance = 6.0;
    /** Calibration bands [low, high] the variations must land in (%). */
    double perfBand[2] = {};
    double energyBand[2] = {};
};

/** Check that @p value lies in the calibration band @p band. */
inline void
bandCheck(double value, const double (&band)[2], const std::string &what)
{
    paperCheck(value >= band[0] && value <= band[1],
               what + " inside the " + fmtDouble(band[0], 0) + "-" +
                   fmtPercent(band[1], 0) + " calibration band");
}

/** The unit named @p id in @p s, or nullptr. */
inline const UnitOutcome *
findUnit(const SocStudy &s, const std::string &id)
{
    for (const auto &u : s.units) {
        if (u.unitId == id)
            return &u;
    }
    return nullptr;
}

/**
 * Run the protocol on @p solver, render panels (a) performance and
 * (b) energy, check them, and return the study for the figure's own
 * unit-level checks.
 */
inline SocStudy
runSocFigure(const SocFigureSpec &spec, SolverKind solver)
{
    std::printf("%s",
                figureHeader(
                    spec.figureId + ": Process variations in " +
                        spec.socName,
                    "performance variation ~" +
                        fmtPercent(spec.paperPerfPercent, 0) +
                        ", energy variation ~" +
                        fmtPercent(spec.paperEnergyPercent, 0))
                    .c_str());

    StudyConfig cfg;
    cfg.iterations = 5; // the paper's minimum
    cfg.solver = solver;
    SocStudy s = runSocStudy(spec.socName, cfg);

    Table t({"Unit", "Score (iter)", "RSD", "Fixed energy (J)", "RSD",
             "Fixed score"});
    BarFigure perf("(" + spec.figureId +
                       "a) UNCONSTRAINED performance, normalized to best",
                   "iterations");
    BarFigure energy("(" + spec.figureId +
                         "b) FIXED-FREQUENCY energy, normalized to best",
                     "J");
    for (const auto &u : s.units) {
        t.addRow({u.unitId, fmtDouble(u.meanScore, 1),
                  fmtPercent(u.scoreRsdPercent, 2),
                  fmtDouble(u.meanFixedEnergyJ, 1),
                  fmtPercent(u.fixedEnergyRsdPercent, 2),
                  fmtDouble(u.meanFixedScore, 1)});
        perf.addBar(u.unitId, u.meanScore);
        energy.addBar(u.unitId, u.meanFixedEnergyJ);
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("%s\n", perf.render(true).c_str());
    std::printf("%s\n", energy.render(false).c_str());

    std::printf("Measured: performance variation %s, energy variation "
                "%s, fixed-frequency perf spread %s\n",
                fmtPercent(s.perfVariationPercent).c_str(),
                fmtPercent(s.energyVariationPercent).c_str(),
                fmtPercent(s.fixedPerfSpreadPercent, 2).c_str());

    std::printf("\nSHAPE CHECK vs paper:\n");
    paperCheck(std::abs(s.perfVariationPercent - spec.paperPerfPercent) <=
                   spec.perfTolerance,
               "performance variation " +
                   fmtPercent(s.perfVariationPercent) + " vs paper " +
                   fmtPercent(spec.paperPerfPercent, 0));
    paperCheck(std::abs(s.energyVariationPercent -
                        spec.paperEnergyPercent) <= spec.energyTolerance,
               "energy variation " +
                   fmtPercent(s.energyVariationPercent) + " vs paper " +
                   fmtPercent(spec.paperEnergyPercent, 0));
    paperCheck(s.fixedPerfSpreadPercent <= 2.0,
               "fixed-frequency performance spread stays negligible "
               "(setup sanity, paper: <=1.3-2.6% RSD)");
    bandCheck(s.perfVariationPercent, spec.perfBand,
              "performance variation");
    bandCheck(s.energyVariationPercent, spec.energyBand,
              "energy variation");
    return s;
}

} // namespace pvar

#endif // PVAR_BENCH_SOC_FIGURE_HH
