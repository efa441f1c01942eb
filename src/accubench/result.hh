/**
 * @file
 * Result types for ACCUBENCH runs.
 */

#ifndef PVAR_ACCUBENCH_RESULT_HH
#define PVAR_ACCUBENCH_RESULT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hh"
#include "sim/trace.hh"
#include "sim/units.hh"
#include "stats/summary.hh"

namespace pvar
{

/** Outcome of one ACCUBENCH iteration (warmup + cooldown + workload). */
struct IterationResult
{
    /** Benchmark score: iterations completed across all cores. */
    double score = 0.0;

    /** Energy drawn from the supply during the workload phase. */
    Joules workloadEnergy{0.0};

    /** Energy drawn across the whole iteration. */
    Joules totalEnergy{0.0};

    /** @name Phase durations. @{ */
    Time warmupTime;
    Time cooldownTime;
    Time workloadTime;
    /** @} */

    /** Sensor temperature when the workload phase began. */
    Celsius tempAtWorkloadStart{0.0};

    /** Peak sensor temperature during the workload phase. */
    Celsius peakWorkloadTemp{0.0};

    /** True if the cooldown reached the target before its timeout. */
    bool cooldownReachedTarget = true;
};

/**
 * Classified outcome of one supervised experiment. The supervisor
 * classifies every attempt post-hoc (classifyExperiment() in
 * protocol.hh), so cached and freshly computed results classify
 * identically.
 */
enum class ExperimentStatus : std::uint8_t
{
    /** Completed and passed the validity gate. */
    Ok = 0,

    /**
     * Completed but the validity gate rejected it (cooldown never
     * reached its target, or the workload temperature excursion was
     * out of range). Retried like a transient fault.
     */
    InvalidRun,

    /** An injected (or real) transient fault aborted the attempt. */
    TransientFault,

    /** A permanent fault: never retried, always propagated. */
    PermanentFault,
};

/** Stable wire name ("ok", "invalid-run", ...). */
const char *experimentStatusName(ExperimentStatus status);

/**
 * The one process-wide empty trace, built on first use: the trace of
 * a default-constructed result, so ExperimentResult::trace is never
 * null without allocating per result.
 */
const std::shared_ptr<const Trace> &emptyTrace();

/** Outcome of a multi-iteration experiment on one device. */
struct ExperimentResult
{
    std::string unitId;
    std::string model;
    std::string socName;

    std::vector<IterationResult> iterations;

    /** @name Supervision outcome (see protocol.hh). @{ */
    ExperimentStatus status = ExperimentStatus::Ok;

    /** Attempts consumed, including the one that produced this. */
    std::uint32_t attempts = 1;

    /** True when the retry budget ran out and the unit was benched. */
    bool quarantined = false;
    /** @} */

    /**
     * Full time series over the whole experiment; never null. The
     * engine records into a trace of its own and freezes it when the
     * run finishes, so every copy of a result (a cache entry, a hit,
     * the supervisor's stamped slot) shares one immutable trace:
     * copying a result copies no samples. Recorded only when something
     * reads it: runExperiment() and other direct engine callers, a
     * study with a result cache, and any run with live points. An
     * uncached study's results keep emptyTrace() (CohortTask::keepTrace).
     */
    std::shared_ptr<const Trace> trace = emptyTrace();

    /** @name Reductions over iterations. @{ */
    OnlineSummary scoreSummary() const;
    OnlineSummary workloadEnergySummary() const;
    double meanScore() const { return scoreSummary().mean(); }
    double scoreRsdPercent() const { return scoreSummary().rsdPercent(); }
    Joules meanWorkloadEnergy() const
    {
        return Joules(workloadEnergySummary().mean());
    }
    double energyRsdPercent() const
    {
        return workloadEnergySummary().rsdPercent();
    }
    /** @} */
};

} // namespace pvar

#endif // PVAR_ACCUBENCH_RESULT_HH
