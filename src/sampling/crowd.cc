#include "sampling/crowd.hh"

#include <memory>

#include "accubench/ambient_estimator.hh"
#include "accubench/experiment.hh"
#include "accubench/phase_windows.hh"
#include "device/fleet.hh"
#include "sampling/cohort_runner.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/strfmt.hh"

namespace pvar
{

std::vector<CrowdReport>
CrowdResult::reports() const
{
    std::vector<CrowdReport> out;
    out.reserve(outcomes.size());
    for (const auto &o : outcomes)
        out.push_back(o.report);
    return out;
}

CrowdResult
simulateCrowd(const CrowdConfig &cfg)
{
    if (cfg.units < 1)
        fatal("simulateCrowd: need at least one unit");
    if (cfg.iterations < 2)
        fatal("simulateCrowd: need >= 2 iterations (the ambient fit "
              "uses the second cooldown)");

    // Draw every unit's silicon corner and climate serially, in unit
    // order, so the population is a pure function of the seed no
    // matter how the experiments are scheduled afterwards.
    struct UnitSpec
    {
        UnitCorner corner;
        double ambient;
    };
    Rng rng(cfg.seed);
    std::vector<UnitSpec> specs(cfg.units);
    for (int i = 0; i < cfg.units; ++i) {
        UnitSpec &spec = specs[i];
        spec.corner = sampleUnitCorner(
            rng, strfmt("%s-crowd-%03d", cfg.socName.c_str(), i),
            cfg.cornerSigma);
        spec.ambient = rng.uniform(cfg.ambientLoC, cfg.ambientHiC);
    }

    // Units run in cohort windows through the shared runner; the
    // batch-size invariant keeps every unit's bytes independent of the
    // window width, so this is pure throughput, like `jobs`.
    CrowdResult result;
    result.outcomes.resize(cfg.units);
    runCohortWindows(
        specs.size(), cfg.jobs, cfg.batch, cfg.solver,
        [&](std::size_t i) {
            return makeUnitForSoc(cfg.socName, specs[i].corner);
        },
        [&](std::size_t i) {
            const UnitSpec &spec = specs[i];
            ExperimentConfig exp;
            exp.mode = WorkloadMode::Unconstrained;
            exp.iterations = cfg.iterations;
            exp.accubench = cfg.accubench;
            exp.supply = SupplyChoice::Battery; // no lab gear out there
            exp.thermabox.target = Celsius(spec.ambient);
            exp.accubench.cooldownTarget = Celsius(spec.ambient + 8.0);
            exp.solver = cfg.solver;
            return exp;
        },
        [&](std::size_t i, Device &device, ExperimentResult &r) {
            const UnitSpec &spec = specs[i];

            // The app-side ambient estimate: fit the second cooldown.
            AmbientEstimate est;
            if (auto win =
                    phaseWindow(*r.trace, AccubenchPhase::Cooldown, 1)) {
                est = estimateAmbientFromTrace(
                    r.trace->channel("die_temp"), win->begin, win->end);
            }

            CrowdUnitOutcome &out = result.outcomes[i];
            out.report.unitId = spec.corner.id;
            out.report.model = device.model();
            out.report.score = r.meanScore();
            out.report.estimatedAmbientC =
                est.valid ? est.ambient.value() : -273.0;
            out.report.ambientValid = est.valid;
            out.trueAmbientC = spec.ambient;
            out.leakFactor = device.soc().die().params().leakFactor;
            out.speedFactor = device.soc().die().params().speedFactor;
        });

    // Population statistics: P² estimates are feed-order dependent,
    // so fold serially in unit order once every slot is filled.
    for (const CrowdUnitOutcome &out : result.outcomes)
        result.scores.add(out.report.score);
    return result;
}

} // namespace pvar
