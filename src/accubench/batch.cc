#include "accubench/batch.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "power/monsoon.hh"
#include "sim/bytes.hh"
#include "sim/logging.hh"

namespace pvar
{

namespace
{

/**
 * Where a member's protocol script is parked between simulator
 * advances. "Wait" states resume after an advance; the others are
 * inline transitions the state machine runs through without leaving
 * stepProtocol().
 */
enum class Phase
{
    StabilizeWait,
    WarmupWait,
    CooldownHead,
    CooldownPollWait,
    CooldownExit,
    WorkloadWait,
    Done,
};

/**
 * One die mid-experiment. Carries its own clock because the engine
 * drives the member's two components itself, which is what lets it
 * interleave device segments across the cohort.
 */
struct Member
{
    Device *dev;
    const ExperimentConfig *cfg;
    FaultFrame *frame;

    Thermabox box;
    std::unique_ptr<Monsoon> monsoon;

    // Components tick chamber first, device second. A Fast member
    // jumps event to event: to the nearest component boundary or
    // protocol deadline, never less than one dt.
    Time now = Time::zero();

    ExperimentResult result;

    /**
     * The trace being recorded, on the heap from the start so the
     * device's cached channel pointers stay valid until the run ends;
     * published into result.trace, frozen, when the member finishes.
     * Null when the task keeps no trace: the device then records
     * nothing and the result keeps emptyTrace().
     */
    std::shared_ptr<Trace> trace;

    Phase phase = Phase::StabilizeWait;
    bool needAdvance = false;
    Time limit; // deadline of the run loop currently advancing

    Time stabDeadline;

    IterationResult it;
    int iterDone = 0;
    Time warmupStart, warmupEnd;
    Joules e0{0.0};
    Time cooldownStart, cooldownDeadline, pollEnd;
    Time workloadStart, workloadEnd;
    Joules eWorkloadStart{0.0};

    /**
     * A checkpoint exists for this run (restored, or captured once at
     * the capture point); never capture twice.
     */
    bool livePointSaved = false;

    void restoreLivePointIfAny();

    explicit Member(CohortTask &task)
        : dev(task.device), cfg(&task.cfg), frame(task.faultFrame),
          box(task.cfg.thermabox)
    {
        result.unitId = dev->unitId();
        result.model = dev->model();
        result.socName = dev->socName();

        if (cfg->dt <= Time::zero())
            fatal("Simulator step must be positive, got %s",
                  cfg->dt.toString().c_str());
        box.placeDevice(dev);

        if (cfg->solver == SolverKind::Fast) {
            dev->setThermalSolver(SolverKind::Fast);
            box.setSolver(SolverKind::Fast);
        }

        switch (cfg->supply) {
          case SupplyChoice::MonsoonNominal:
            monsoon =
                std::make_unique<Monsoon>(dev->config().battery.nominal);
            dev->attachExternalSupply(monsoon.get());
            break;
          case SupplyChoice::MonsoonExplicit:
            monsoon = std::make_unique<Monsoon>(cfg->monsoonVoltage);
            dev->attachExternalSupply(monsoon.get());
            break;
          case SupplyChoice::Battery:
            dev->attachExternalSupply(nullptr);
            dev->battery().setStateOfCharge(cfg->batterySoc);
            break;
        }

        if (cfg->mode == WorkloadMode::FixedFrequency)
            dev->setFixedFrequency(cfg->fixedFrequency);
        else
            dev->setPerformanceMode();

        dev->resetExperimentState();
        dev->setSuspendAllowed(false);
        if (cfg->soakFirst)
            dev->soakTo(box.airTemp());
        if (task.keepTrace || cfg->livePoints)
            trace = std::make_shared<Trace>();
        dev->attachTrace(trace.get());

        // Confirm the chamber is in band (the app's first step).
        stabDeadline = now + Time::minutes(30);
        limit = stabDeadline;
        phase = Phase::StabilizeWait;
        needAdvance = true; // now < stabDeadline always holds here

        // Last, so the restored bytes land on top of a fully wired
        // cold device (solver, supply, trace channels all resolved).
        restoreLivePointIfAny();
    }
};

/**
 * @name Live-point checkpoints
 *
 * The stabilize/warmup#0/cooldown#0 prefix of an experiment is a pure
 * function of the experiment key and dominates wall clock, so its end
 * state — the entry to Phase::CooldownExit with iterDone == 0 — is
 * worth persisting. A cold run captures it once; a re-run under the
 * same full key restores it and replays the CooldownExit transition,
 * which is bit-identical to having simulated the prefix.
 *
 * Record layout (codec version 3; store/codec.hh reserves the version
 * number and validates exactly this framing without understanding the
 * payloads):
 *
 *   u32 version (=3) | u64 digest | u32 n_sections
 *                    | (u32 tag | str payload)*
 *
 * `digest` is the FNV-1a of every byte after the digest field, so a
 * record flips from valid to rejected on any single corrupted body
 * byte, no matter what transport carried it.
 *
 * Restores are transactional: the cold state is snapshotted before any
 * byte of the fetched value is applied, and every decode or validation
 * failure rolls back to it — a corrupt checkpoint costs time, never
 * bits.
 * @{
 */

constexpr std::uint32_t kLivePointVersion = 3; // = store/codec.hh
constexpr std::uint32_t kSectionMeta = 1;   // clock + protocol scratch
constexpr std::uint32_t kSectionBox = 2;    // Thermabox
constexpr std::uint32_t kSectionDevice = 3; // full Device state
constexpr std::uint32_t kSectionTrace = 4;  // samples recorded so far

void
writeMeta(const Member &m, ByteWriter &w)
{
    w.i64(m.now.toUsec());
    w.i64(m.limit.toUsec());
    w.u32(static_cast<std::uint32_t>(m.iterDone));
    w.i64(m.warmupStart.toUsec());
    w.i64(m.warmupEnd.toUsec());
    w.f64(m.e0.value());
    w.i64(m.cooldownStart.toUsec());
    w.i64(m.cooldownDeadline.toUsec());
    w.i64(m.pollEnd.toUsec());
    w.f64(m.it.score);
    w.f64(m.it.workloadEnergy.value());
    w.f64(m.it.totalEnergy.value());
    w.i64(m.it.warmupTime.toUsec());
    w.i64(m.it.cooldownTime.toUsec());
    w.i64(m.it.workloadTime.toUsec());
    w.f64(m.it.tempAtWorkloadStart.value());
    w.f64(m.it.peakWorkloadTemp.value());
    w.u8(m.it.cooldownReachedTarget ? 1 : 0);
}

bool
readMeta(Member &m, ByteReader &r)
{
    std::int64_t now = 0, limit = 0;
    std::int64_t wu_start = 0, wu_end = 0;
    std::int64_t cd_start = 0, cd_deadline = 0, poll_end = 0;
    std::uint32_t iter_done = 0;
    double e0 = 0.0;
    double score = 0.0, wl_energy = 0.0, total_energy = 0.0;
    std::int64_t wu_time = 0, cd_time = 0, wl_time = 0;
    double temp_start = 0.0, temp_peak = 0.0;
    std::uint8_t reached = 0;
    if (!r.i64(now) || !r.i64(limit) || !r.u32(iter_done) ||
        !r.i64(wu_start) || !r.i64(wu_end) || !r.f64(e0) ||
        !r.i64(cd_start) || !r.i64(cd_deadline) || !r.i64(poll_end) ||
        !r.f64(score) || !r.f64(wl_energy) || !r.f64(total_energy) ||
        !r.i64(wu_time) || !r.i64(cd_time) || !r.i64(wl_time) ||
        !r.f64(temp_start) || !r.f64(temp_peak) || !r.u8(reached))
        return false;
    // The capture point is pinned to iteration 0; anything else is a
    // foreign or corrupt record.
    if (iter_done != 0 || reached > 1)
        return false;
    m.now = Time::usec(now);
    m.limit = Time::usec(limit);
    m.iterDone = 0;
    m.warmupStart = Time::usec(wu_start);
    m.warmupEnd = Time::usec(wu_end);
    m.e0 = Joules(e0);
    m.cooldownStart = Time::usec(cd_start);
    m.cooldownDeadline = Time::usec(cd_deadline);
    m.pollEnd = Time::usec(poll_end);
    m.it.score = score;
    m.it.workloadEnergy = Joules(wl_energy);
    m.it.totalEnergy = Joules(total_energy);
    m.it.warmupTime = Time::usec(wu_time);
    m.it.cooldownTime = Time::usec(cd_time);
    m.it.workloadTime = Time::usec(wl_time);
    m.it.tempAtWorkloadStart = Celsius(temp_start);
    m.it.peakWorkloadTemp = Celsius(temp_peak);
    m.it.cooldownReachedTarget = reached != 0;
    return true;
}

std::string
encodeLivePoint(const Member &m)
{
    ByteWriter meta, box, device, trace;
    writeMeta(m, meta);
    m.box.saveState(box);
    m.dev->saveState(device);
    m.trace->saveState(trace);

    ByteWriter body;
    body.u32(4);
    body.u32(kSectionMeta);
    body.str(meta.take());
    body.u32(kSectionBox);
    body.str(box.take());
    body.u32(kSectionDevice);
    body.str(device.take());
    body.u32(kSectionTrace);
    body.str(trace.take());
    std::string bytes = body.take();

    ByteWriter head;
    head.u32(kLivePointVersion);
    head.u64(fnv1a64(bytes.data(), bytes.size()));
    return head.take() + bytes;
}

/** Apply @p value to @p m; false leaves @p m partially written. */
bool
decodeLivePoint(Member &m, const std::string &value)
{
    ByteReader r(value);
    std::uint32_t version = 0, n_sections = 0;
    std::uint64_t digest = 0;
    if (!r.u32(version) || version != kLivePointVersion)
        return false;
    // The self-check digest gates everything below: no payload byte
    // is interpreted unless the whole body hashes clean.
    if (!r.u64(digest) ||
        fnv1a64(value.data() + r.pos(), value.size() - r.pos()) !=
            digest)
        return false;
    if (!r.u32(n_sections) || n_sections != 4)
        return false;
    bool seen[5] = {};
    for (std::uint32_t i = 0; i < n_sections; ++i) {
        std::uint32_t tag = 0;
        std::string payload;
        if (!r.u32(tag) || !r.str(payload))
            return false;
        if (tag < kSectionMeta || tag > kSectionTrace || seen[tag])
            return false;
        seen[tag] = true;
        ByteReader pr(payload);
        bool ok = false;
        switch (tag) {
          case kSectionMeta:
            ok = readMeta(m, pr);
            break;
          case kSectionBox:
            ok = m.box.loadState(pr);
            break;
          case kSectionDevice:
            ok = m.dev->loadState(pr);
            break;
          case kSectionTrace:
            ok = m.trace->loadState(pr);
            break;
        }
        if (!ok || !pr.done())
            return false;
    }
    return r.done();
}

void
Member::restoreLivePointIfAny()
{
    if (!cfg->livePoints || cfg->livePointKey.empty())
        return;
    if (frame) {
        // Fault injection may fire during the prefix a checkpoint
        // skips; a capture would bake "no fault fired" into every
        // later run. Fault-framed experiments always run cold.
        return;
    }
    std::string value;
    if (!cfg->livePoints->fetch(cfg->livePointKey, value))
        return; // cold: capture once we reach the capture point

    // Snapshot the cold state (and channel set) so a bad value rolls
    // back instead of leaving a half-applied restore.
    std::vector<std::string> cold_channels = trace->channelNames();
    ByteWriter snap;
    box.saveState(snap);
    dev->saveState(snap);
    trace->saveState(snap);
    std::string rollback = snap.take();

    if (decodeLivePoint(*this, value)) {
        phase = Phase::CooldownExit;
        needAdvance = false;
        livePointSaved = true; // restored in place; nothing to capture
        debug("live point: restored unit %s at t=%s",
              result.unitId.c_str(), now.toString().c_str());
        return;
    }
    warn("live point: stored state for unit %s failed to load; "
         "falling back to a cold start", result.unitId.c_str());

    // Drop channels the failed load invented (the snapshot only
    // rewrites channels it knows), then reload component state and
    // reset the protocol scratch to its cold-constructor values.
    for (const std::string &name : trace->channelNames()) {
        if (std::find(cold_channels.begin(), cold_channels.end(),
                      name) == cold_channels.end())
            trace->dropChannel(name);
    }
    ByteReader r(rollback);
    if (!box.loadState(r) || !dev->loadState(r) ||
        !trace->loadState(r) || !r.done())
        fatal("live point: rollback of freshly saved state failed");
    now = Time::zero();
    limit = stabDeadline;
    it = IterationResult{};
    iterDone = 0;
    warmupStart = warmupEnd = Time::zero();
    e0 = Joules(0.0);
    cooldownStart = cooldownDeadline = pollEnd = Time::zero();
    phase = Phase::StabilizeWait;
    needAdvance = true;
}

/** At the capture point on a cold run: persist the checkpoint once. */
void
maybeCaptureLivePoint(Member &m)
{
    if (m.livePointSaved || !m.cfg->livePoints ||
        m.cfg->livePointKey.empty() || m.frame)
        return;
    m.livePointSaved = true; // one attempt per run, success or not
    m.cfg->livePoints->store(m.cfg->livePointKey, encodeLivePoint(m));
}

/** @} */

void
markPhase(Member &m, AccubenchPhase phase)
{
    if (m.trace)
        m.trace->record("phase", m.now, static_cast<double>(phase));
}

void
enterWarmup(Member &m)
{
    m.it = IterationResult{};
    markPhase(m, AccubenchPhase::Warmup);
    m.dev->acquireWakelock();
    m.dev->startWorkload(m.cfg->accubench.workload);
    m.warmupStart = m.now;
    m.e0 = m.dev->energyMeter().total();
    m.warmupEnd = m.now + m.cfg->accubench.warmupDuration;
    m.limit = m.warmupEnd;
    m.phase = Phase::WarmupWait;
}

void
enterCooldown(Member &m)
{
    markPhase(m, AccubenchPhase::Cooldown);
    m.dev->stopWorkload();
    m.dev->releaseWakelock();
    m.dev->setSuspendAllowed(true);
    m.cooldownStart = m.now;
    m.cooldownDeadline = m.now + m.cfg->accubench.cooldownTimeout;
    m.it.cooldownReachedTarget = false;
    m.phase = Phase::CooldownHead;
}

void
enterWorkload(Member &m)
{
    markPhase(m, AccubenchPhase::Workload);
    m.dev->acquireWakelock();
    m.dev->resetIterations();
    m.it.tempAtWorkloadStart = m.dev->readCpuTemp();
    m.workloadStart = m.now;
    m.eWorkloadStart = m.dev->energyMeter().total();
    m.dev->startWorkload(m.cfg->accubench.workload);
    m.dev->resetSensorPeak();
    m.workloadEnd = m.now + m.cfg->accubench.workloadDuration;
    m.limit = m.workloadEnd;
    m.phase = Phase::WorkloadWait;
}

/** Next iteration, or restore the device and park the member. */
void
beginIterationOrFinish(Member &m)
{
    if (m.iterDone < m.cfg->iterations) {
        enterWarmup(m);
        return;
    }
    m.dev->attachTrace(nullptr);
    m.dev->attachExternalSupply(nullptr);
    m.dev->setPerformanceMode();
    m.dev->setThermalSolver(SolverKind::Stepped);
    if (m.trace)
        m.result.trace = std::move(m.trace); // frozen from here on
    m.phase = Phase::Done;
}

/**
 * Run the member's protocol script until it either needs an
 * advance (needAdvance set; `limit` holds the active deadline) or
 * completes. Called once after setup and after every advance; each
 * "Wait" case re-checks its loop condition after every advance, and a
 * deadline is reached in whole advances, so it may be overshot by up
 * to one dt.
 */
void
stepProtocol(Member &m)
{
    for (;;) {
        switch (m.phase) {
          case Phase::StabilizeWait:
            // Wait up to 30 min for box.stable(): the predicate is
            // checked after every advance, then once more on deadline.
            if (m.box.stable()) {
                beginIterationOrFinish(m);
                continue;
            }
            if (m.now < m.stabDeadline) {
                m.needAdvance = true;
                return;
            }
            warn("runExperiment: thermabox failed to stabilize; "
                 "proceeding anyway");
            beginIterationOrFinish(m);
            continue;

          case Phase::WarmupWait:
            if (m.now < m.warmupEnd) {
                m.needAdvance = true;
                return;
            }
            m.it.warmupTime = m.now - m.warmupStart;
            enterCooldown(m);
            continue;

          case Phase::CooldownHead:
            if (m.now < m.cooldownDeadline) {
                // Sleep until the next poll, then wake momentarily to
                // read the sensor, as the paper's app does.
                m.pollEnd = m.now + m.cfg->accubench.cooldownPoll;
                m.limit = m.pollEnd;
                m.phase = Phase::CooldownPollWait;
                continue;
            }
            m.phase = Phase::CooldownExit;
            continue;

          case Phase::CooldownPollWait:
            if (m.now < m.pollEnd) {
                m.needAdvance = true;
                return;
            }
            m.dev->stayAwakeUntil(m.now + m.cfg->accubench.pollWakeSpan);
            if (m.dev->readCpuTemp() <= m.cfg->accubench.cooldownTarget) {
                m.it.cooldownReachedTarget = true;
                m.phase = Phase::CooldownExit;
            } else {
                m.phase = Phase::CooldownHead;
            }
            continue;

          case Phase::CooldownExit:
            // The live-point capture point: end of the cold prefix,
            // before the first workload phase mutates anything.
            if (m.iterDone == 0)
                maybeCaptureLivePoint(m);
            if (!m.it.cooldownReachedTarget)
                warn("ACCUBENCH %s: cooldown timed out above %.1fC",
                     m.dev->name().c_str(),
                     m.cfg->accubench.cooldownTarget.value());
            m.it.cooldownTime = m.now - m.cooldownStart;
            m.dev->setSuspendAllowed(false);
            enterWorkload(m);
            continue;

          case Phase::WorkloadWait: {
            if (m.now < m.workloadEnd) {
                m.needAdvance = true;
                return;
            }
            double peak = m.dev->sensorPeak().value();
            m.dev->stopWorkload();
            m.dev->releaseWakelock();
            markPhase(m, AccubenchPhase::Idle);
            m.it.workloadTime = m.now - m.workloadStart;
            m.it.score = m.dev->iterations();
            m.it.workloadEnergy =
                m.dev->energyMeter().total() - m.eWorkloadStart;
            m.it.totalEnergy = m.dev->energyMeter().total() - m.e0;
            m.it.peakWorkloadTemp = Celsius(peak);
            m.result.iterations.push_back(m.it);
            ++m.iterDone;
            beginIterationOrFinish(m);
            continue;
          }

          case Phase::Done:
            return;
        }
    }
}

/**
 * Let every Fast member alias the first member's eigendecomposition.
 * adoptFastSolver() only succeeds on bit-identical topologies, so a
 * mixed cohort silently degrades to per-member solvers.
 */
void
shareFastSolvers(std::vector<std::unique_ptr<Member>> &members)
{
    Member *donor = nullptr;
    for (auto &mp : members) {
        if (mp->cfg->solver != SolverKind::Fast)
            continue;
        if (!donor) {
            if (mp->dev->packageNetwork().fastReady())
                donor = mp.get();
            continue;
        }
        mp->dev->packageNetwork().adoptFastSolver(
            donor->dev->packageNetwork());
    }
}

/**
 * Advance every pending thermal jump, batching members whose segment
 * spans match (the batched advance itself degrades to serial when the
 * networks don't share a solver). Grouping never changes result bits;
 * it only decides how much of the work runs interleaved.
 */
void
batchJumps(std::vector<Member *> &jumps)
{
    std::vector<ThermalNetwork *> nets;
    std::vector<Member *> rest;
    while (!jumps.empty()) {
        Time span = jumps.front()->dev->fastSegmentSpan();
        nets.clear();
        rest.clear();
        for (Member *m : jumps) {
            if (m->dev->fastSegmentSpan() == span)
                nets.push_back(&m->dev->packageNetwork());
            else
                rest.push_back(m);
        }
        ThermalNetwork::fastAdvanceBatch(nets.data(), nets.size(), span);
        jumps.swap(rest);
    }
}

} // namespace

int
resolveBatchSize(int batch, SolverKind solver)
{
    if (batch > 0)
        return batch;
    return solver == SolverKind::Fast ? 16 : 1;
}

std::vector<ExperimentResult>
runExperimentCohort(std::vector<CohortTask> &tasks)
{
    std::vector<std::unique_ptr<Member>> members;
    members.reserve(tasks.size());
    for (CohortTask &task : tasks) {
        FaultFrameGuard guard(task.faultFrame);
        members.push_back(std::make_unique<Member>(task));
    }
    shareFastSolvers(members);

    std::vector<Member *> advancers;
    std::vector<Member *> staged;
    std::vector<Member *> jumps;
    for (;;) {
        // Run every member's script to its next advance point. A
        // member whose protocol finished drops out here — that is the
        // cohort splitting on divergence — and one entering its next
        // phase rejoins the common rounds below.
        advancers.clear();
        for (auto &mp : members) {
            Member &m = *mp;
            if (m.phase == Phase::Done)
                continue;
            if (!m.needAdvance) {
                FaultFrameGuard guard(m.frame);
                stepProtocol(m);
            }
            if (m.needAdvance)
                advancers.push_back(&m);
        }
        if (advancers.empty())
            break;

        // One advance per member: pick the event-driven jump target,
        // tick the chamber, then open the device tick — staged for
        // Fast members so their segments can interleave, monolithic
        // otherwise.
        staged.clear();
        for (Member *m : advancers) {
            FaultFrameGuard guard(m->frame);
            m->needAdvance = false;
            Time target = m->now + m->cfg->dt;
            if (m->cfg->solver == SolverKind::Fast) {
                Time candidate = m->box.nextBoundary(m->now, m->cfg->dt);
                candidate = std::min(
                    candidate, m->dev->nextBoundary(m->now, m->cfg->dt));
                candidate = std::min(candidate, m->limit);
                target = std::max(target, candidate);
            }
            Time step = target - m->now;
            m->now = target;
            m->box.tick(m->now, step);
            if (m->dev->thermalSolver() == SolverKind::Fast) {
                m->dev->fastTickBegin(m->now, step);
                staged.push_back(m);
            } else {
                m->dev->tick(m->now, step);
            }
        }

        // Stage rounds: one segment per member per round. The cohort
        // shrinks as members exhaust their tick spans (throttle or
        // suspend divergence shortens segments member by member).
        while (!staged.empty()) {
            jumps.clear();
            for (Member *m : staged) {
                FaultFrameGuard guard(m->frame);
                if (m->dev->fastSegmentAdvance())
                    jumps.push_back(m);
            }
            batchJumps(jumps);
            for (Member *m : staged) {
                FaultFrameGuard guard(m->frame);
                m->dev->fastSegmentService();
            }
            staged.erase(
                std::remove_if(staged.begin(), staged.end(),
                               [](Member *m) {
                                   return m->dev->fastTickDone();
                               }),
                staged.end());
        }
    }

    std::vector<ExperimentResult> results;
    results.reserve(members.size());
    for (auto &mp : members)
        results.push_back(std::move(mp->result));
    return results;
}

} // namespace pvar
