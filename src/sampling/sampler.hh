/**
 * @file
 * Stratified systematic sampler with confidence intervals.
 *
 * Characterizes a population of N dies (population.hh) without
 * simulating all N. The design follows the two classical ideas the
 * SMARTS line of samplers built on:
 *
 *  - Stratified systematic sampling. The population is sorted by
 *    latent corner in index order, so splitting the index range into
 *    K equal strata splits the corner distribution into K
 *    equal-probability bands. Each sampling *round* draws one die per
 *    stratum (without replacement within a stratum), giving a
 *    spread-out, low-variance snapshot of the whole distribution per
 *    round. All draws happen serially before any experiment runs, so
 *    the sampled set — and every reported byte — is identical for any
 *    `jobs` or `batch` value.
 *
 *  - Interpenetrating (round-replicate) confidence intervals. Each
 *    round is an independent, identically-designed probe of the
 *    population, so the spread of the per-round estimates measures
 *    the sampling error of their mean directly: for R rounds,
 *
 *        half-width = t_{R-1,0.975} * s_rounds / sqrt(R) * fpc,
 *        fpc        = sqrt(1 - n/N)  (finite population correction)
 *
 *    with no distributional assumptions about the per-die scores
 *    themselves. The adaptive loop keeps drawing rounds until the
 *    largest relative half-width across the headline statistics
 *    reaches the requested target (or the round budget runs out).
 *
 * Memory is O(strata + rounds), never O(N): pooled percentiles go
 * through StreamingSummary (P²), fed in canonical (round, stratum)
 * order after each round's fan-out so the estimate is feed-order
 * deterministic.
 */

#ifndef PVAR_SAMPLING_SAMPLER_HH
#define PVAR_SAMPLING_SAMPLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accubench/accubench.hh"
#include "accubench/experiment.hh"
#include "sampling/population.hh"
#include "stats/summary.hh"

namespace pvar
{

/** Crowd-study parameters. */
struct CrowdStudyConfig
{
    /** The population to characterize. */
    CrowdPopulationConfig population;

    /** Equal-probability corner strata (>= 1). */
    int strata = 16;

    /** Rounds always drawn (>= 2; variance needs replicates). */
    int minRounds = 4;

    /** Round budget for the adaptive loop. */
    int maxRounds = 32;

    /**
     * Stop once every headline statistic's relative CI half-width
     * (100 * half / |value|) is at or below this, in percent.
     * <= 0 runs exactly minRounds.
     */
    double ciTargetPercent = 0.0;

    /** ACCUBENCH iterations per sampled die. */
    int iterations = 1;

    /** Technique parameters (shorten for quick studies). */
    AccubenchConfig accubench;

    /** Worker threads for the per-round fan-out (result-invariant). */
    int jobs = 1;

    /** Cohort width for the batched engine (result-invariant). */
    int batch = 0;

    /**
     * Thermal solver. Fast by default: a crowd study is exactly the
     * analytic solver's sweet spot (population scale, tolerance-level
     * agreement documented in DESIGN.md).
     */
    SolverKind solver = SolverKind::Fast;

    /**
     * Optional live-point checkpoint cache. When attached, every
     * sampled die's experiment carries its full-key live-point key,
     * so a re-run of the same study (same seed => same sampled dies)
     * skips each die's stabilize/warmup/cooldown prefix while
     * producing byte-identical statistics (batch.cc's restore
     * contract).
     */
    LivePointCache *livePoints = nullptr;
};

/** A point estimate with its CI half-width (95%, round-replicate). */
struct Estimate
{
    double value = 0.0;
    double halfWidth = 0.0;
};

/** Population share of one equal-population corner bin. */
struct BinShareEstimate
{
    int bin = 0;
    Estimate share;
};

/** Everything the crowd study reports. */
struct CrowdStudyResult
{
    std::uint64_t population = 0;
    int strata = 0;
    int rounds = 0;
    std::uint64_t sampled = 0;
    double ciTargetPercent = 0.0;

    /** Largest relative half-width across the headline statistics. */
    double achievedRelErrPercent = 0.0;

    /** @name Headline statistics (round-replicate mean ± CI). @{ */
    Estimate scoreMean;
    Estimate scoreRsdPercent;
    Estimate scoreP50;
    Estimate scoreP90;
    Estimate energyMean;
    Estimate energyP50;
    Estimate energyP90;
    /** @} */

    /** Per-bin population shares, ascending bin index. */
    std::vector<BinShareEstimate> binShares;

    /**
     * Streaming sketches over every sampled die, fed in canonical
     * (round, stratum) order: the population CDF view (P² median and
     * p90) the adaptive estimates are cross-checked against.
     */
    StreamingSummary pooledScores;
    StreamingSummary pooledEnergy;
};

/** Run the stratified crowd study. Deterministic for a given config. */
CrowdStudyResult runCrowdStudy(const CrowdStudyConfig &cfg);

/**
 * The experiment one sampled die runs: UNCONSTRAINED mode on the
 * die's own battery, chamber pinned at the die's ambient, live-point
 * key attached when cfg.livePoints is set. Exposed so exhaustive
 * ground-truth sweeps (the oracle tests in test_sampling.cc) run
 * *exactly* the per-die configuration the sampler uses.
 */
ExperimentConfig crowdDieExperiment(const CrowdStudyConfig &cfg,
                                    const CrowdDie &die);

/**
 * Canonical JSON rendering (exact doubles, fixed key order, no
 * wall-clock content) — byte-identical across jobs/batch values and
 * across cold vs live-point-warm runs.
 */
std::string crowdStudyJson(const CrowdStudyResult &r);

/**
 * 95% critical value of Student's t with @p df degrees of freedom
 * (two-sided); ~1.96 for large df.
 */
double tCritical95(int df);

/**
 * Exact type-7 (linear interpolation) quantile of @p values,
 * 0 <= q <= 1. Sorts a copy; meant for per-round replicates, not
 * populations.
 */
double exactQuantile(std::vector<double> values, double q);

} // namespace pvar

#endif // PVAR_SAMPLING_SAMPLER_HH
