#include "accubench/protocol.hh"

#include <algorithm>
#include <memory>
#include <span>

#include "accubench/batch.hh"
#include "fault/fault.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/strfmt.hh"
#include "stats/summary.hh"

namespace pvar
{

namespace
{

/**
 * One schedulable experiment: a (unit, mode) pair. The device is
 * identified by registry entry and unit index and constructed inside
 * the task, so concurrent tasks never share object state.
 */
struct ExperimentTask
{
    const RegistryEntry *entry;
    std::size_t unitIndex;
    ExperimentConfig cfg;
};

const std::string &
unitId(const ExperimentTask &task)
{
    return task.entry->units.at(task.unitIndex).id;
}

const char *
modeName(WorkloadMode mode)
{
    return mode == WorkloadMode::Unconstrained ? "unconstrained"
                                               : "fixed-frequency";
}

/**
 * Chunk the task list into cohorts of up to `width` same-(entry, mode)
 * tasks: members must match so they can share a thermal
 * eigendecomposition and stay phase-aligned. Adjacent tasks alternate
 * modes (unit 0 unc, unit 0 fix, ...), so each (entry, mode) keeps one
 * open cohort that fills as its tasks arrive. Cohorts are listed in
 * the order of their first task, so at width 1 they run in task order.
 */
std::vector<std::vector<std::size_t>>
planCohorts(const std::vector<ExperimentTask> &tasks, std::size_t width)
{
    struct Open
    {
        const RegistryEntry *entry;
        WorkloadMode mode;
        std::size_t cohort;
    };
    std::vector<Open> open;
    std::vector<std::vector<std::size_t>> cohorts;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const ExperimentTask &task = tasks[i];
        auto it = std::find_if(open.begin(), open.end(),
                               [&](const Open &o) {
                                   return o.entry == task.entry &&
                                          o.mode == task.cfg.mode;
                               });
        if (it == open.end()) {
            it = open.insert(open.end(), Open{task.entry, task.cfg.mode, 0});
        } else if (cohorts[it->cohort].size() < width) {
            cohorts[it->cohort].push_back(i);
            continue;
        }
        it->cohort = cohorts.size();
        cohorts.push_back({i});
    }
    return cohorts;
}

/**
 * Supervise one cohort's tasks in attempt rounds: attempt, classify,
 * retry, and — when the budget runs out — quarantine (or escalate).
 *
 * Round k takes the slots still pending. Each gets a fresh FaultFrame
 * keyed by (task index, k) and retrySalt = k; the experiment.run check
 * fires before the cache lookup, so a warm cache faults exactly like a
 * cold one. The misses run as one engine cohort, are inserted, and are
 * classified: an Ok slot is done, a failed one goes to round k+1.
 * Every fault decision of an attempt counts against its own frame, and
 * each attempt builds its own retry-salted device, so a slot's bytes
 * do not depend on which slots share its rounds — bit-identical at any
 * jobs count and cohort width.
 */
void
superviseCohort(const std::vector<ExperimentTask> &tasks,
                const std::vector<std::size_t> &cohort,
                const StudyConfig &study,
                std::vector<ExperimentResult> &results)
{
    ExperimentCache *cache = study.cache;
    int max_attempts = std::max(1, study.retry.maxAttempts);

    struct Slot
    {
        std::size_t taskIndex = 0;
        ExperimentStatus last = ExperimentStatus::TransientFault;
        // This round's attempt.
        std::unique_ptr<FaultFrame> frame;
        ExperimentConfig acfg;
        std::unique_ptr<Device> device; // set iff the attempt must run
        bool faulted = false;           // experiment.run fired
        ExperimentResult result;        // cache hit or engine output
    };

    std::vector<Slot> slots(cohort.size());
    std::vector<Slot *> pending;
    for (std::size_t j = 0; j < cohort.size(); ++j) {
        slots[j].taskIndex = cohort[j];
        pending.push_back(&slots[j]);
    }

    for (int attempt = 0; attempt < max_attempts && !pending.empty();
         ++attempt) {
        const char *retrying =
            attempt + 1 < max_attempts ? "; retrying" : "";
        std::vector<CohortTask> engine_tasks;
        std::vector<Slot *> running;
        for (Slot *slot : pending) {
            const ExperimentTask &task = tasks[slot->taskIndex];
            slot->acfg = task.cfg;
            slot->acfg.retrySalt = static_cast<std::uint64_t>(attempt);
            slot->frame = std::make_unique<FaultFrame>(faultScopeId(
                slot->taskIndex, static_cast<std::uint64_t>(attempt)));
            slot->device.reset();

            FaultFrameGuard guard(slot->frame.get());
            FaultHit hit = faultCheck(FaultSite::ExperimentRun);
            slot->faulted = hit.fired;
            if (hit.fired) {
                if (hit.kind == FaultKind::Permanent) {
                    throw PermanentFaultError(
                        strfmt("unit %s %s: injected permanent fault",
                               unitId(task).c_str(),
                               modeName(slot->acfg.mode)));
                }
                slot->last = ExperimentStatus::TransientFault;
                warn("study:   unit %s %s attempt %d/%d: transient "
                     "fault%s",
                     unitId(task).c_str(), modeName(slot->acfg.mode),
                     attempt + 1, max_attempts, retrying);
                continue;
            }
            if (cache && cache->lookup(*task.entry, task.unitIndex,
                                       slot->acfg, slot->result))
                continue;
            slot->device = buildDevice(
                task.entry->spec, task.entry->units.at(task.unitIndex),
                slot->acfg.retrySalt);
            inform("study:   unit %s %s%s", unitId(task).c_str(),
                   modeName(slot->acfg.mode),
                   attempt ? strfmt(" (retry %d)", attempt).c_str() : "");
            CohortTask ct;
            ct.device = slot->device.get();
            ct.cfg = slot->acfg;
            ct.faultFrame = slot->frame.get();
            // Only a cache reads a study result's trace; the reduction
            // reads the iteration records alone.
            ct.keepTrace = cache != nullptr;
            engine_tasks.push_back(std::move(ct));
            running.push_back(slot);
        }

        if (!engine_tasks.empty()) {
            std::vector<ExperimentResult> engine_results =
                runExperimentCohort(engine_tasks);
            for (std::size_t j = 0; j < running.size(); ++j) {
                Slot &slot = *running[j];
                slot.result = std::move(engine_results[j]);
                if (cache) {
                    // A cache keeps what it is given, so give it a
                    // compact copy of the trace: the engine's carries
                    // growth slack and sits among the run's transient
                    // allocations, which a kept trace would pin.
                    slot.result.trace =
                        std::make_shared<const Trace>(*slot.result.trace);
                    const ExperimentTask &task = tasks[slot.taskIndex];
                    FaultFrameGuard guard(slot.frame.get());
                    cache->insert(*task.entry, task.unitIndex, slot.acfg,
                                  slot.result);
                }
            }
        }

        std::vector<Slot *> failed;
        for (Slot *slot : pending) {
            if (slot->faulted) {
                failed.push_back(slot);
                continue;
            }
            ExperimentStatus status =
                classifyExperiment(slot->result, slot->acfg, study.gate);
            if (status == ExperimentStatus::Ok) {
                ExperimentResult &out = results[slot->taskIndex];
                out = std::move(slot->result);
                out.status = status;
                out.attempts = static_cast<std::uint32_t>(attempt + 1);
                out.quarantined = false;
                continue;
            }
            slot->last = status;
            warn("study:   unit %s %s attempt %d/%d: %s%s",
                 unitId(tasks[slot->taskIndex]).c_str(),
                 modeName(slot->acfg.mode), attempt + 1, max_attempts,
                 experimentStatusName(status), retrying);
            failed.push_back(slot);
        }
        pending.swap(failed);
    }

    for (Slot *slot : pending) {
        const ExperimentTask &task = tasks[slot->taskIndex];
        const std::string &unit_id = unitId(task);
        if (!study.retry.quarantine) {
            throw PermanentFaultError(
                strfmt("unit %s %s: %d attempts exhausted (last: %s)",
                       unit_id.c_str(), modeName(task.cfg.mode),
                       max_attempts, experimentStatusName(slot->last)));
        }
        warn("study:   unit %s %s quarantined after %d attempts "
             "(last: %s)",
             unit_id.c_str(), modeName(task.cfg.mode), max_attempts,
             experimentStatusName(slot->last));
        ExperimentResult benched;
        benched.unitId = unit_id;
        benched.model = task.entry->spec.model;
        benched.socName = task.entry->spec.socName;
        benched.status = slot->last;
        benched.attempts = static_cast<std::uint32_t>(max_attempts);
        benched.quarantined = true;
        results[slot->taskIndex] = std::move(benched);
    }
}

/**
 * Run every task, possibly across a thread pool. results[i] always
 * corresponds to tasks[i], so the output is independent of scheduling.
 * Tasks run as cohorts of up to the resolved batch width (1 for the
 * stepped solver by default), one supervised cohort per pool task;
 * per-task bytes do not depend on the width (the batch-size
 * invariant), only throughput moves. With a cache, each attempt is
 * routed through it; a hit skips the simulation entirely and (by
 * determinism) yields the same bytes.
 */
std::vector<ExperimentResult>
runExperimentTasks(const std::vector<ExperimentTask> &tasks,
                   const StudyConfig &cfg)
{
    std::vector<ExperimentResult> results(tasks.size());
    std::vector<std::vector<std::size_t>> cohorts = planCohorts(
        tasks,
        static_cast<std::size_t>(resolveBatchSize(cfg.batch, cfg.solver)));
    parallelFor(cohorts.size(), cfg.jobs, [&](std::size_t c) {
        superviseCohort(tasks, cohorts[c], cfg, results);
    });
    // A finished study is a durability point: results a client is
    // about to see must survive a crash of the process.
    if (cfg.cache)
        cfg.cache->flushPending();
    return results;
}

/** The two per-unit experiment configs of one model's study. */
std::pair<ExperimentConfig, ExperimentConfig>
studyExperimentConfigs(const RegistryEntry &entry, const StudyConfig &cfg)
{
    ExperimentConfig unc_cfg;
    unc_cfg.mode = WorkloadMode::Unconstrained;
    unc_cfg.iterations = cfg.iterations;
    unc_cfg.accubench = cfg.accubench;
    unc_cfg.thermabox = cfg.thermabox;
    unc_cfg.dt = cfg.dt;
    unc_cfg.solver = cfg.solver;
    unc_cfg.supply = SupplyChoice::MonsoonExplicit;
    unc_cfg.monsoonVoltage = entry.monsoonVoltage;

    ExperimentConfig fix_cfg = unc_cfg;
    fix_cfg.mode = WorkloadMode::FixedFrequency;
    fix_cfg.fixedFrequency = entry.fixedFrequency;
    return {unc_cfg, fix_cfg};
}

/** Tasks for one model, in fleet order: unit 0 unc, unit 0 fix, ... */
std::vector<ExperimentTask>
socStudyTasks(const RegistryEntry &entry, const StudyConfig &cfg)
{
    auto [unc_cfg, fix_cfg] = studyExperimentConfigs(entry, cfg);
    std::vector<ExperimentTask> tasks;
    tasks.reserve(entry.units.size() * 2);
    for (std::size_t u = 0; u < entry.units.size(); ++u) {
        tasks.push_back(ExperimentTask{&entry, u, unc_cfg});
        tasks.push_back(ExperimentTask{&entry, u, fix_cfg});
    }
    return tasks;
}

/**
 * Split interleaved per-unit results back into the two mode lists.
 * The results are moved: a copy would share the frozen trace but
 * still copy three strings and the per-iteration records.
 */
SocStudy
reduceInterleaved(const std::string &soc_name, const std::string &model,
                  std::span<ExperimentResult> results)
{
    std::vector<ExperimentResult> unconstrained;
    std::vector<ExperimentResult> fixed_freq;
    unconstrained.reserve(results.size() / 2);
    fixed_freq.reserve(results.size() / 2);
    for (std::size_t i = 0; i < results.size(); i += 2) {
        unconstrained.push_back(std::move(results[i]));
        fixed_freq.push_back(std::move(results[i + 1]));
    }
    return reduceSocStudy(soc_name, model, unconstrained, fixed_freq);
}

} // namespace

ExperimentResult
ExperimentCache::getOrCompute(
    const RegistryEntry &entry, std::size_t unit_index,
    const ExperimentConfig &cfg,
    const std::function<ExperimentResult()> &compute)
{
    ExperimentResult result;
    if (lookup(entry, unit_index, cfg, result))
        return result;
    result = compute();
    insert(entry, unit_index, cfg, result);
    return result;
}

ExperimentStatus
classifyExperiment(const ExperimentResult &result,
                   const ExperimentConfig &cfg,
                   const ValidityGate &gate)
{
    double target = cfg.accubench.cooldownTarget.value();
    for (const IterationResult &it : result.iterations) {
        if (gate.requireCooldownTarget && !it.cooldownReachedTarget)
            return ExperimentStatus::InvalidRun;
        if (it.tempAtWorkloadStart.value() >
            target + gate.maxStartAboveTargetC)
            return ExperimentStatus::InvalidRun;
        if (it.peakWorkloadTemp.value() > gate.maxPeakWorkloadTempC)
            return ExperimentStatus::InvalidRun;
    }
    return ExperimentStatus::Ok;
}

SocStudy
reduceSocStudy(const std::string &soc_name, const std::string &model,
               const std::vector<ExperimentResult> &unconstrained,
               const std::vector<ExperimentResult> &fixed_freq)
{
    if (unconstrained.size() != fixed_freq.size())
        fatal("reduceSocStudy: mismatched experiment lists (%zu vs %zu)",
              unconstrained.size(), fixed_freq.size());

    SocStudy study;
    study.socName = soc_name;
    study.model = model;

    std::vector<double> mean_scores;
    std::vector<double> mean_fixed_energies;
    std::vector<double> mean_fixed_scores;
    OnlineSummary rsd_acc;
    OnlineSummary efficiency_acc;

    for (std::size_t i = 0; i < unconstrained.size(); ++i) {
        const ExperimentResult &unc = unconstrained[i];
        const ExperimentResult &fix = fixed_freq[i];

        UnitOutcome unit;
        unit.unitId = unc.unitId;
        unit.meanScore = unc.meanScore();
        unit.scoreRsdPercent = unc.scoreRsdPercent();
        unit.meanUnconstrainedEnergyJ = unc.meanWorkloadEnergy().value();
        unit.meanFixedEnergyJ = fix.meanWorkloadEnergy().value();
        unit.fixedEnergyRsdPercent = fix.energyRsdPercent();
        unit.meanFixedScore = fix.meanScore();
        unit.fixedScoreRsdPercent = fix.scoreRsdPercent();
        unit.unconstrainedStatus = unc.status;
        unit.fixedStatus = fix.status;
        unit.unconstrainedAttempts = unc.attempts;
        unit.fixedAttempts = fix.attempts;
        unit.quarantined = unc.quarantined || fix.quarantined;
        study.units.push_back(unit);

        if (unit.quarantined) {
            // A benched unit contributes nothing to the variation
            // numbers: one placeholder zero-score would otherwise
            // dominate every spread.
            ++study.quarantinedUnits;
            continue;
        }

        mean_scores.push_back(unit.meanScore);
        mean_fixed_energies.push_back(unit.meanFixedEnergyJ);
        mean_fixed_scores.push_back(unit.meanFixedScore);
        rsd_acc.add(unit.scoreRsdPercent);

        if (unit.meanUnconstrainedEnergyJ > 0.0) {
            efficiency_acc.add(unit.meanScore /
                               (unit.meanUnconstrainedEnergyJ / 3600.0));
        }
    }

    study.perfVariationPercent = relativeSpread(mean_scores) * 100.0;
    study.energyVariationPercent =
        relativeExcess(mean_fixed_energies) * 100.0;
    study.fixedPerfSpreadPercent =
        relativeSpread(mean_fixed_scores) * 100.0;
    study.meanScoreRsdPercent = rsd_acc.mean();
    study.efficiencyIterPerWh = efficiency_acc.mean();
    return study;
}

SocStudy
runEntryStudy(const RegistryEntry &entry, const StudyConfig &cfg)
{
    std::vector<ExperimentTask> tasks = socStudyTasks(entry, cfg);
    inform("study: %s (%zu units, %d jobs)",
           entry.spec.socName.c_str(), tasks.size() / 2,
           resolveJobs(cfg.jobs));
    std::vector<ExperimentResult> results =
        runExperimentTasks(tasks, cfg);
    return reduceInterleaved(entry.spec.socName, entry.spec.model,
                             results);
}

SocStudy
runUnitStudy(const RegistryEntry &entry, std::size_t unit_index,
             const StudyConfig &cfg)
{
    if (unit_index >= entry.units.size())
        fatal("runUnitStudy: unit %zu out of range (%s has %zu)",
              unit_index, entry.spec.model.c_str(),
              entry.units.size());
    auto [unc_cfg, fix_cfg] = studyExperimentConfigs(entry, cfg);
    std::vector<ExperimentTask> tasks = {
        ExperimentTask{&entry, unit_index, unc_cfg},
        ExperimentTask{&entry, unit_index, fix_cfg},
    };
    inform("study: %s unit %s (%d jobs)", entry.spec.socName.c_str(),
           entry.units[unit_index].id.c_str(), resolveJobs(cfg.jobs));
    std::vector<ExperimentResult> results =
        runExperimentTasks(tasks, cfg);
    return reduceInterleaved(entry.spec.socName, entry.spec.model,
                             results);
}

SocStudy
runSocStudy(const std::string &soc_name, const StudyConfig &cfg)
{
    return runEntryStudy(DeviceRegistry::builtin().at(soc_name), cfg);
}

std::vector<SocStudy>
runStudy(const std::vector<const RegistryEntry *> &entries,
         const StudyConfig &cfg)
{
    // Flatten all models into one task list so the fan-out spans the
    // whole fleet (~180 experiments at paper scale), not one model at
    // a time; per-model slices are reduced in input order afterwards.
    std::vector<ExperimentTask> tasks;
    std::vector<std::size_t> first_task(entries.size() + 1, 0);
    for (std::size_t s = 0; s < entries.size(); ++s) {
        std::vector<ExperimentTask> entry_tasks =
            socStudyTasks(*entries[s], cfg);
        first_task[s + 1] = first_task[s] + entry_tasks.size();
        for (auto &t : entry_tasks)
            tasks.push_back(std::move(t));
    }
    inform("study: full fleet, %zu experiments, %d jobs", tasks.size(),
           resolveJobs(cfg.jobs));

    std::vector<ExperimentResult> results =
        runExperimentTasks(tasks, cfg);

    std::vector<SocStudy> studies;
    studies.reserve(entries.size());
    for (std::size_t s = 0; s < entries.size(); ++s) {
        std::span<ExperimentResult> slice =
            std::span(results).subspan(first_task[s],
                                       first_task[s + 1] - first_task[s]);
        studies.push_back(reduceInterleaved(entries[s]->spec.socName,
                                            entries[s]->spec.model,
                                            slice));
    }
    return studies;
}

std::vector<SocStudy>
runFullStudy(const StudyConfig &cfg)
{
    std::vector<const RegistryEntry *> entries;
    for (const RegistryEntry &e : DeviceRegistry::builtin().entries()) {
        if (e.inStudy)
            entries.push_back(&e);
    }
    return runStudy(entries, cfg);
}

} // namespace pvar
