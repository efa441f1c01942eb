/**
 * @file
 * Batched die engine: structure-of-arrays experiment cohorts, and the
 * one implementation of the ACCUBENCH phase machine (§III).
 *
 * Run one die at a time, the dominant costs — the leakage/power
 * closure and the analytic thermal jump — form one long dependency
 * chain per die. The cohort engine instead runs B dies of the same
 * spec in lockstep on one thread: every member carries its own clock
 * and its own protocol state machine, but the per-segment work is
 * issued stage by stage across the whole cohort (all power closures,
 * then all thermal jumps, then all services).
 * Same-topology members share one eigendecomposition and their
 * thermal jumps advance through FastThermalSolver::advanceBatch over
 * a planar [node][die] state block.
 *
 * Determinism contract: a member's floating-point op sequence is
 * exactly the serial path's, so per-die outputs are bit-identical for
 * any batch size — B=1 ≡ B=8 ≡ B=64, and B=1 is byte-identical to the
 * pre-engine single-die path (pinned by tests/test_batch.cc and the
 * batch-identity stage of scripts/check.sh). Members do not
 * synchronize: when throttle or cooldown behavior diverges, a member
 * simply leaves the common stage rounds early (a cohort "split") and
 * re-enters them at its next protocol phase (the "rejoin"); the
 * lockstep is purely a throughput pattern.
 *
 * The study supervisor (accubench/protocol.cc) runs every experiment
 * attempt through this engine: cohorts of up to resolveBatchSize()
 * same-(model, mode) dies, one engine call per attempt round, and
 * runExperiment() is the width-1 case.
 */

#ifndef PVAR_ACCUBENCH_BATCH_HH
#define PVAR_ACCUBENCH_BATCH_HH

#include <vector>

#include "accubench/experiment.hh"

namespace pvar
{

class FaultFrame;

/** One die's slot in a cohort run. */
struct CohortTask
{
    /** The die to run; not owned. Configured and restored per `cfg`. */
    Device *device = nullptr;

    ExperimentConfig cfg;

    /**
     * Optional persistent fault-counting frame; when set, every
     * faultCheck() this die performs counts against it, no matter how
     * its work interleaves with other members'. Not owned.
     */
    FaultFrame *faultFrame = nullptr;

    /**
     * Record the die's time series into the result's trace. Only the
     * trace is at stake: every other result byte is the same either
     * way. The study supervisor clears it when nothing will read the
     * trace (no result cache), and such a result carries emptyTrace().
     * A task with live points records regardless, because a checkpoint
     * carries the trace recorded so far.
     */
    bool keepTrace = true;
};

/**
 * Cohort width to use when the configured batch is 0 (engine pick):
 * the fast solver amortizes across 16 dies; the stepped reference
 * gains nothing from interleaving, so it runs width-1 cohorts.
 */
int resolveBatchSize(int batch, SolverKind solver);

/**
 * Run every task's experiment, interleaved as one cohort on the
 * calling thread. Results are positional with `tasks`; each is
 * exactly what runExperiment(task.device, task.cfg) returns, except
 * that a task which keeps no trace gets emptyTrace().
 */
std::vector<ExperimentResult>
runExperimentCohort(std::vector<CohortTask> &tasks);

} // namespace pvar

#endif // PVAR_ACCUBENCH_BATCH_HH
