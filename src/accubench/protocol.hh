/**
 * @file
 * The full study protocol of paper §IV.
 *
 * For each SoC generation: run the UNCONSTRAINED experiment (for
 * performance) and the FIXED-FREQUENCY experiment (for energy) on
 * every unit of the fleet, then reduce to the variation numbers the
 * paper reports in Figures 6-9 and Table II, plus the Fig 13
 * efficiency metric.
 */

#ifndef PVAR_ACCUBENCH_PROTOCOL_HH
#define PVAR_ACCUBENCH_PROTOCOL_HH

#include <functional>
#include <string>
#include <vector>

#include "accubench/experiment.hh"
#include "device/fleet.hh"

namespace pvar
{

struct RegistryEntry;

/**
 * Memoization point for individual (unit, mode) experiments.
 *
 * The supervisor probes lookup() for every experiment attempt and
 * hands each miss's computed result to insert(); an implementation may
 * answer a lookup with a previously computed result for an identical
 * (spec, unit, config) triple. Because experiments are deterministic,
 * a cached result is bit-identical to a fresh run — implementations
 * must preserve that contract (key on *content*, never on names
 * alone).
 *
 * The canonical implementation is store/result_cache.hh; the
 * interface lives here so the protocol layer needs no service
 * dependency. Implementations must be thread-safe: the scheduler
 * calls in from every worker.
 */
class ExperimentCache
{
  public:
    virtual ~ExperimentCache() = default;

    /**
     * Probe for a cached result without computing. True fills `out`
     * and counts as a hit; false counts as a miss, and the caller
     * later hands the computed result to insert().
     */
    virtual bool lookup(const RegistryEntry &entry,
                        std::size_t unit_index,
                        const ExperimentConfig &cfg,
                        ExperimentResult &out) = 0;

    /** Store a result computed after a lookup() miss. */
    virtual void insert(const RegistryEntry &entry,
                        std::size_t unit_index,
                        const ExperimentConfig &cfg,
                        const ExperimentResult &result) = 0;

    /**
     * lookup(), and on a miss @p compute then insert(). Nothing in the
     * library calls it; it remains as a decorator seam for callers
     * that time a whole probe-compute-store round.
     */
    virtual ExperimentResult getOrCompute(
        const RegistryEntry &entry, std::size_t unit_index,
        const ExperimentConfig &cfg,
        const std::function<ExperimentResult()> &compute);

    /**
     * Called by the scheduler after a study's task fan-out completes.
     * Durable implementations use it as a batch boundary (fsync
     * buffered appends); the in-memory cache has nothing to flush.
     */
    virtual void flushPending() {}
};

/**
 * Retry budget for supervised experiments.
 *
 * A transient fault or an invalid run consumes one attempt; the
 * scheduler retries with the attempt index salted into the cache key
 * and the sensor noise seed, so every attempt is individually
 * reproducible and the retry sequence is bit-identical at any jobs
 * count. Permanent faults are never retried.
 */
struct RetryPolicy
{
    /** Total attempts per experiment (first try included). */
    int maxAttempts = 3;

    /**
     * What to do when the budget runs out: true benches the unit
     * (placeholder result with quarantined=true, excluded from study
     * aggregates); false throws PermanentFaultError and aborts.
     */
    bool quarantine = true;
};

/**
 * Validity gate of the ACCUBENCH protocol (paper §III): the app
 * refuses to score an iteration whose thermal preconditions failed.
 * Defaults are wide enough that no healthy simulated run ever
 * trips them.
 */
struct ValidityGate
{
    /**
     * Reject the experiment when any iteration's cooldown timed out
     * before the chamber target was reached.
     */
    bool requireCooldownTarget = true;

    /**
     * Reject when an iteration's workload began more than this many
     * degrees above the app's cooldown target (the die was still hot:
     * the sensor drifted, or the poll raced the timeout).
     */
    double maxStartAboveTargetC = 3.0;

    /**
     * Reject when the peak workload temperature exceeds this
     * absolute bound (runaway heating: throttling broken).
     */
    double maxPeakWorkloadTempC = 120.0;
};

/**
 * Classify one completed experiment against the gate. A pure function
 * of the result bytes and the configs, so a cached result classifies
 * exactly like the fresh run that produced it. Returns Ok or
 * InvalidRun — fault statuses are assigned by the supervisor, which
 * sees the thrown FaultError instead of a result.
 */
ExperimentStatus classifyExperiment(const ExperimentResult &result,
                                    const ExperimentConfig &cfg,
                                    const ValidityGate &gate);

/** Study-wide knobs. */
struct StudyConfig
{
    /** Iterations per experiment (paper: 5). */
    int iterations = 5;

    /** Simulation step. */
    Time dt = Time::msec(10);

    /**
     * Thermal solver for every experiment in the study: Stepped is the
     * bit-identity reference; Fast is the analytic event-to-event path
     * (agrees to tolerance). Part of the cache key: cached stepped
     * results are never served for a fast study or vice versa.
     */
    SolverKind solver = SolverKind::Stepped;

    /** Chamber parameters (paper: 26 +/- 0.5 C). */
    ThermaboxParams thermabox;

    /** ACCUBENCH parameters. */
    AccubenchConfig accubench;

    /**
     * Worker threads for the experiment fan-out. Each (device, mode)
     * experiment is an independent task on its own device instance, so
     * the study scales with cores; results are gathered in fleet order
     * and are bit-identical for any jobs value. 1 = serial (default);
     * <= 0 = all hardware threads.
     */
    int jobs = 1;

    /**
     * Optional experiment memoizer (not owned). When set, every
     * (unit, mode) task is routed through it, so identical experiments
     * — duplicated units within one fleet, or repeated runs against a
     * long-lived cache — are simulated once. nullptr = always compute.
     */
    ExperimentCache *cache = nullptr;

    /**
     * Cohort width for the batched die engine: same-(model, mode)
     * experiments run B dies in lockstep, sharing one thermal
     * eigendecomposition (accubench/batch.hh). Per-die outputs are
     * bit-identical for every value — the batch-size invariant,
     * enforced alongside the jobs invariant by tests — so this is a
     * pure throughput knob. 0 (default) lets the engine pick: 16 for
     * the fast solver, 1 for the stepped reference.
     */
    int batch = 0;

    /** Retry/quarantine budget for faulted or invalid experiments. */
    RetryPolicy retry;

    /** Validity gate applied to every completed experiment. */
    ValidityGate gate;
};

/** Per-unit outcome of both experiments. */
struct UnitOutcome
{
    std::string unitId;

    /** UNCONSTRAINED results. */
    double meanScore = 0.0;
    double scoreRsdPercent = 0.0;
    double meanUnconstrainedEnergyJ = 0.0;

    /** FIXED-FREQUENCY results. */
    double meanFixedEnergyJ = 0.0;
    double fixedEnergyRsdPercent = 0.0;
    double meanFixedScore = 0.0;
    double fixedScoreRsdPercent = 0.0;

    /** @name Supervision outcome, per mode. @{ */
    ExperimentStatus unconstrainedStatus = ExperimentStatus::Ok;
    ExperimentStatus fixedStatus = ExperimentStatus::Ok;
    std::uint32_t unconstrainedAttempts = 1;
    std::uint32_t fixedAttempts = 1;

    /** Either experiment exhausted its retry budget. */
    bool quarantined = false;
    /** @} */
};

/** Per-SoC reduction (one Table II row). */
struct SocStudy
{
    std::string socName;
    std::string model;
    std::vector<UnitOutcome> units;

    /** Performance variation: spread of UNCONSTRAINED mean scores. */
    double perfVariationPercent = 0.0;

    /** Energy variation: excess of FIXED-FREQUENCY mean energies. */
    double energyVariationPercent = 0.0;

    /** Spread of FIXED-FREQUENCY scores (setup sanity; small). */
    double fixedPerfSpreadPercent = 0.0;

    /** Mean per-unit score RSD (repeatability). */
    double meanScoreRsdPercent = 0.0;

    /**
     * Fig 13 efficiency: UNCONSTRAINED iterations per watt-hour,
     * averaged over units.
     */
    double efficiencyIterPerWh = 0.0;

    /**
     * Units benched after exhausting their retry budget. Quarantined
     * units still appear in `units` (flagged) but are excluded from
     * every aggregate above.
     */
    std::uint64_t quarantinedUnits = 0;
};

/** Run both experiments on every unit of one SoC's fleet. */
SocStudy runSocStudy(const std::string &soc_name, const StudyConfig &cfg);

/** Reduce already-run experiment results into a SocStudy. */
SocStudy reduceSocStudy(
    const std::string &soc_name, const std::string &model,
    const std::vector<ExperimentResult> &unconstrained,
    const std::vector<ExperimentResult> &fixed_freq);

/** Run the whole study (all five SoCs, paper order). */
std::vector<SocStudy> runFullStudy(const StudyConfig &cfg);

/**
 * Run the protocol on an arbitrary fleet — built-in models, entries
 * loaded from a fleet file, or any mix. All (unit, mode) experiments
 * across all entries are flattened into one task list so the fan-out
 * spans the whole fleet; one SocStudy per entry, input order.
 */
std::vector<SocStudy> runStudy(
    const std::vector<const RegistryEntry *> &entries,
    const StudyConfig &cfg);

/** Run the protocol on one model's calibrated fleet. */
SocStudy runEntryStudy(const RegistryEntry &entry,
                       const StudyConfig &cfg);

/** Run the protocol on a single unit of a model's fleet. */
SocStudy runUnitStudy(const RegistryEntry &entry,
                      std::size_t unit_index, const StudyConfig &cfg);

} // namespace pvar

#endif // PVAR_ACCUBENCH_PROTOCOL_HH
