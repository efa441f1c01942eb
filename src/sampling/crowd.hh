/**
 * @file
 * Crowdsourced-study simulation (paper §VI).
 *
 * The paper's future-work plan: ship ACCUBENCH as a Play Store app,
 * collect scores from devices in the wild, estimate each run's
 * ambient temperature from its cooldown curve, filter to comparable
 * conditions, and rank/bin the population. This module simulates the
 * entire pipeline: a synthetic world fleet (random silicon corners,
 * random climates, battery-powered), per-unit ACCUBENCH runs with
 * ambient estimation, and the resulting filtered reports ready for
 * rankDevices() / recoverBins().
 */

#ifndef PVAR_SAMPLING_CROWD_HH
#define PVAR_SAMPLING_CROWD_HH

#include <string>
#include <vector>

#include "accubench/accubench.hh"
#include "accubench/ranking.hh"
#include "stats/summary.hh"
#include "thermal/rc_network.hh"

namespace pvar
{

/** World-fleet generation parameters. */
struct CrowdConfig
{
    /** The SoC whose owners participate. */
    std::string socName = "SD-821";

    /** Number of participating units. */
    int units = 10;

    /** Seed for corners and climates. */
    std::uint64_t seed = 1;

    /** Sigma of the latent process deviate across the population. */
    double cornerSigma = 1.0;

    /** Ambient temperature range of the climates (uniform). */
    double ambientLoC = 2.0;
    double ambientHiC = 44.0;

    /** ACCUBENCH iterations each owner runs. */
    int iterations = 2;

    /** Technique parameters (paper defaults). */
    AccubenchConfig accubench;

    /**
     * Worker threads for the per-unit fan-out. Corners and climates
     * are drawn serially in unit order before any experiment starts,
     * so results are bit-identical for any jobs value. 1 = serial
     * (default); <= 0 = all hardware threads.
     */
    int jobs = 1;

    /**
     * Thermal solver for every unit's experiment (same contract as
     * StudyConfig::solver).
     */
    SolverKind solver = SolverKind::Stepped;

    /**
     * Die-cohort width: units run through the batched experiment
     * engine (accubench/batch.hh) in windows of this many lockstep
     * members. Per-unit results are bit-identical for any value —
     * a pure throughput knob, like `jobs`. 0 (default) = engine pick
     * (~16 fast, serial stepped).
     */
    int batch = 0;
};

/** One simulated participant. */
struct CrowdUnitOutcome
{
    CrowdReport report;

    /** Ground truth, unavailable to the real backend. */
    double trueAmbientC = 0.0;
    double leakFactor = 0.0;
    double speedFactor = 0.0;
};

/** The simulated dataset. */
struct CrowdResult
{
    std::vector<CrowdUnitOutcome> outcomes;

    /**
     * Streaming population statistics over the raw scores — mean/RSD
     * plus P² median and 90th percentile — fed serially in unit order
     * after the fan-out completes, so the estimates are bit-identical
     * for any jobs or batch value.
     */
    StreamingSummary scores;

    /** Just the reports, for rankDevices(). */
    std::vector<CrowdReport> reports() const;
};

/**
 * Simulate the full crowdsourcing pipeline.
 *
 * Each unit runs on its own battery in its own climate; the ambient
 * estimate is fitted from the second iteration's cooldown window,
 * exactly as the shipped app would do it.
 */
CrowdResult simulateCrowd(const CrowdConfig &cfg);

} // namespace pvar

#endif // PVAR_SAMPLING_CROWD_HH
