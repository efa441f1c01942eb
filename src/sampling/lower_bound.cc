#include "sampling/lower_bound.hh"

#include <algorithm>
#include <memory>

#include "accubench/experiment.hh"
#include "device/fleet.hh"
#include "sampling/cohort_runner.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/strfmt.hh"
#include "stats/summary.hh"

namespace pvar
{

std::vector<LowerBoundPoint>
sampleSizeStudy(const LowerBoundConfig &cfg)
{
    if (cfg.replicates < 1)
        fatal("sampleSizeStudy: need at least one replicate");
    for (int n : cfg.sampleSizes) {
        if (n < 2)
            fatal("sampleSizeStudy: sample sizes must be >= 2");
    }

    ExperimentConfig exp;
    exp.mode = WorkloadMode::Unconstrained;
    exp.iterations = cfg.iterations;
    exp.accubench = cfg.accubench;
    exp.supply = SupplyChoice::MonsoonExplicit;
    exp.monsoonVoltage =
        DeviceRegistry::builtin().at(cfg.socName).monsoonVoltage;
    exp.solver = cfg.solver;

    // Sample every corner serially in (size, replicate, unit) order —
    // the exact draw order of the serial loop — then fan the
    // experiments out flat across all sizes and replicates, which is
    // the largest Monte-Carlo fan-out in the repo.
    struct UnitDraw
    {
        UnitCorner corner;
        std::size_t replicateIndex; // flat (size, rep) slot
    };
    Rng rng(cfg.seed);
    std::vector<UnitDraw> draws;
    std::vector<std::size_t> replicate_of_size; // slot -> sampleSize idx
    for (std::size_t s = 0; s < cfg.sampleSizes.size(); ++s) {
        int n = cfg.sampleSizes[s];
        for (int rep = 0; rep < cfg.replicates; ++rep) {
            std::size_t slot = replicate_of_size.size();
            replicate_of_size.push_back(s);
            for (int u = 0; u < n; ++u) {
                UnitDraw d;
                d.corner = sampleUnitCorner(
                    rng, strfmt("lb-n%d-r%d-u%d", n, rep, u),
                    cfg.cornerSigma);
                d.replicateIndex = slot;
                draws.push_back(d);
            }
        }
    }

    // Fan out in cohort windows through the shared runner; every
    // unit's score is independent of the window width (batch-size
    // invariant), exactly as it is independent of `jobs`.
    std::vector<double> scores(draws.size());
    runCohortWindows(
        draws.size(), cfg.jobs, cfg.batch, cfg.solver,
        [&](std::size_t i) {
            return makeUnitForSoc(cfg.socName, draws[i].corner);
        },
        [&](std::size_t) { return exp; },
        [&](std::size_t i, Device &, ExperimentResult &r) {
            scores[i] = r.meanScore();
        });

    // Reduce each replicate's slice; draws are already grouped by
    // replicate in order, so a single sweep recovers the slices.
    std::vector<std::vector<double>> by_replicate(
        replicate_of_size.size());
    for (std::size_t i = 0; i < draws.size(); ++i)
        by_replicate[draws[i].replicateIndex].push_back(scores[i]);

    std::vector<OnlineSummary> spreads(cfg.sampleSizes.size());
    for (std::size_t slot = 0; slot < by_replicate.size(); ++slot) {
        spreads[replicate_of_size[slot]].add(
            relativeSpread(by_replicate[slot]) * 100.0);
    }

    std::vector<LowerBoundPoint> out;
    out.reserve(cfg.sampleSizes.size());
    for (std::size_t s = 0; s < cfg.sampleSizes.size(); ++s) {
        LowerBoundPoint p;
        p.sampleSize = cfg.sampleSizes[s];
        p.meanSpreadPercent = spreads[s].mean();
        p.minSpreadPercent = spreads[s].min();
        p.maxSpreadPercent = spreads[s].max();
        out.push_back(p);
    }
    return out;
}

} // namespace pvar
