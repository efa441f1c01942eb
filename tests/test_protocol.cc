/**
 * @file
 * Tests for the study protocol: reduction, classification, and the
 * supervisor's retry, quarantine and escalation rules.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "accubench/protocol.hh"
#include "device/registry.hh"
#include "fault/fault.hh"
#include "report/json.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "store/result_cache.hh"

namespace pvar
{
namespace
{

ExperimentResult
synthetic(const std::string &unit, std::vector<double> scores,
          std::vector<double> energies)
{
    ExperimentResult r;
    r.unitId = unit;
    r.model = "Test Phone";
    r.socName = "SD-TEST";
    for (std::size_t i = 0; i < scores.size(); ++i) {
        IterationResult it;
        it.score = scores[i];
        it.workloadEnergy = Joules(energies[i]);
        r.iterations.push_back(it);
    }
    return r;
}

TEST(Protocol, ReduceComputesPaperMetrics)
{
    // Two units: A scores 1000 (uses 500 J unconstrained, 300 J
    // fixed); B scores 860 and uses 360 J fixed.
    std::vector<ExperimentResult> unc = {
        synthetic("A", {1000, 1000}, {500, 500}),
        synthetic("B", {860, 860}, {520, 520}),
    };
    std::vector<ExperimentResult> fix = {
        synthetic("A", {600, 600}, {300, 300}),
        synthetic("B", {600, 600}, {360, 360}),
    };
    SocStudy s = reduceSocStudy("SD-TEST", "Test Phone", unc, fix);

    EXPECT_EQ(s.units.size(), 2u);
    // Perf variation: (1000 - 860) / 1000 = 14%.
    EXPECT_NEAR(s.perfVariationPercent, 14.0, 1e-9);
    // Energy variation: (360 - 300) / 300 = 20%.
    EXPECT_NEAR(s.energyVariationPercent, 20.0, 1e-9);
    // Fixed scores identical -> 0% spread.
    EXPECT_NEAR(s.fixedPerfSpreadPercent, 0.0, 1e-12);
    // Efficiency: mean of score / (E/3600).
    double eff_a = 1000.0 / (500.0 / 3600.0);
    double eff_b = 860.0 / (520.0 / 3600.0);
    EXPECT_NEAR(s.efficiencyIterPerWh, 0.5 * (eff_a + eff_b), 1e-6);
}

TEST(Protocol, ReduceTracksPerUnitOutcomes)
{
    std::vector<ExperimentResult> unc = {
        synthetic("A", {100, 102}, {50, 52})};
    std::vector<ExperimentResult> fix = {
        synthetic("A", {60, 60}, {30, 31})};
    SocStudy s = reduceSocStudy("SD-TEST", "Test Phone", unc, fix);

    ASSERT_EQ(s.units.size(), 1u);
    const UnitOutcome &u = s.units[0];
    EXPECT_EQ(u.unitId, "A");
    EXPECT_NEAR(u.meanScore, 101.0, 1e-9);
    EXPECT_NEAR(u.meanFixedEnergyJ, 30.5, 1e-9);
    EXPECT_GT(u.scoreRsdPercent, 0.0);
    EXPECT_GT(u.fixedEnergyRsdPercent, 0.0);
}

TEST(Protocol, ReduceMismatchedListsDie)
{
    std::vector<ExperimentResult> unc = {
        synthetic("A", {100}, {50})};
    std::vector<ExperimentResult> fix;
    EXPECT_DEATH(reduceSocStudy("SD-TEST", "m", unc, fix), "");
}

TEST(Protocol, StudyConfigDefaultsMatchPaper)
{
    StudyConfig cfg;
    EXPECT_EQ(cfg.iterations, 5);
    EXPECT_DOUBLE_EQ(cfg.thermabox.target.value(), 26.0);
    EXPECT_DOUBLE_EQ(cfg.thermabox.deadband, 0.5);
    EXPECT_EQ(cfg.accubench.warmupDuration, Time::minutes(3));
    EXPECT_EQ(cfg.accubench.workloadDuration, Time::minutes(5));
    EXPECT_EQ(cfg.accubench.cooldownPoll, Time::sec(5));
    EXPECT_EQ(cfg.jobs, 1); // library default stays serial
}

/** A shortened study config so the determinism check stays fast. */
StudyConfig
quickStudyConfig(int jobs, int batch = 0)
{
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.jobs = jobs;
    cfg.batch = batch;
    cfg.accubench.warmupDuration = Time::sec(20);
    cfg.accubench.workloadDuration = Time::sec(30);
    cfg.accubench.cooldownTimeout = Time::minutes(5);
    return cfg;
}

void
expectStudiesBitIdentical(const SocStudy &a, const SocStudy &b)
{
    EXPECT_EQ(a.socName, b.socName);
    EXPECT_EQ(a.model, b.model);
    // EXPECT_EQ on doubles is exact equality: the parallel run must be
    // bit-identical to the serial one, not merely close.
    EXPECT_EQ(a.perfVariationPercent, b.perfVariationPercent);
    EXPECT_EQ(a.energyVariationPercent, b.energyVariationPercent);
    EXPECT_EQ(a.fixedPerfSpreadPercent, b.fixedPerfSpreadPercent);
    EXPECT_EQ(a.meanScoreRsdPercent, b.meanScoreRsdPercent);
    EXPECT_EQ(a.efficiencyIterPerWh, b.efficiencyIterPerWh);
    ASSERT_EQ(a.units.size(), b.units.size());
    for (std::size_t i = 0; i < a.units.size(); ++i) {
        const UnitOutcome &ua = a.units[i];
        const UnitOutcome &ub = b.units[i];
        EXPECT_EQ(ua.unitId, ub.unitId);
        EXPECT_EQ(ua.meanScore, ub.meanScore);
        EXPECT_EQ(ua.scoreRsdPercent, ub.scoreRsdPercent);
        EXPECT_EQ(ua.meanUnconstrainedEnergyJ,
                  ub.meanUnconstrainedEnergyJ);
        EXPECT_EQ(ua.meanFixedEnergyJ, ub.meanFixedEnergyJ);
        EXPECT_EQ(ua.fixedEnergyRsdPercent, ub.fixedEnergyRsdPercent);
        EXPECT_EQ(ua.meanFixedScore, ub.meanFixedScore);
        EXPECT_EQ(ua.fixedScoreRsdPercent, ub.fixedScoreRsdPercent);
        EXPECT_EQ(ua.unconstrainedStatus, ub.unconstrainedStatus);
        EXPECT_EQ(ua.fixedStatus, ub.fixedStatus);
        EXPECT_EQ(ua.unconstrainedAttempts, ub.unconstrainedAttempts);
        EXPECT_EQ(ua.fixedAttempts, ub.fixedAttempts);
        EXPECT_EQ(ua.quarantined, ub.quarantined);
    }
    EXPECT_EQ(a.quarantinedUnits, b.quarantinedUnits);
}

TEST(Protocol, ParallelStudyIsBitIdenticalToSerial)
{
    LogLevel old = setLogLevel(LogLevel::Quiet);
    SocStudy serial = runSocStudy("SD-805", quickStudyConfig(1));
    SocStudy parallel = runSocStudy("SD-805", quickStudyConfig(8));
    setLogLevel(old);
    expectStudiesBitIdentical(serial, parallel);
}

TEST(Protocol, ConcurrentWarmStudiesShareOneCache)
{
    // Warm hits hand out the cached results' shared, frozen traces;
    // two studies reading them at once must both reproduce the cold
    // bytes (the TSan and ASan stages run this binary).
    LogLevel old = setLogLevel(LogLevel::Quiet);
    ResultCache cache(64);
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.solver = SolverKind::Fast;
    cfg.jobs = 2;
    cfg.cache = &cache;
    std::string cold = toJson(runFullStudy(cfg));
    std::uint64_t cold_misses = cache.stats().misses;

    std::string warm[2];
    std::thread other([&] { warm[1] = toJson(runFullStudy(cfg)); });
    warm[0] = toJson(runFullStudy(cfg));
    other.join();
    setLogLevel(old);

    EXPECT_EQ(warm[0], cold);
    EXPECT_EQ(warm[1], cold);
    EXPECT_EQ(cache.stats().misses, cold_misses);
    EXPECT_EQ(cache.stats().hits, 2 * cold_misses);
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

/**
 * A ResultCache front that checks every computed result it receives
 * against a solo runExperiment() of the same attempt: the trace must be
 * the full one, every channel and every sample, not the empty trace an
 * uncached study's results carry.
 */
class TraceCheckingCache : public ExperimentCache
{
  public:
    bool
    lookup(const RegistryEntry &entry, std::size_t unit_index,
           const ExperimentConfig &cfg, ExperimentResult &out) override
    {
        return _inner.lookup(entry, unit_index, cfg, out);
    }

    void
    insert(const RegistryEntry &entry, std::size_t unit_index,
           const ExperimentConfig &cfg,
           const ExperimentResult &result) override
    {
        auto device = buildDevice(entry.spec, entry.units.at(unit_index),
                                  cfg.retrySalt);
        ExperimentResult solo = runExperiment(*device, cfg);
        bool full = result.trace->hasChannel("die_temp") &&
                    result.trace->hasChannel("phase") &&
                    traceBytes(*result.trace) == traceBytes(*solo.trace);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            ++_inserts;
            if (!full)
                ++_partial;
        }
        _inner.insert(entry, unit_index, cfg, result);
    }

    std::uint64_t
    inserts() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _inserts;
    }

    std::uint64_t
    partial() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _partial;
    }

  private:
    static std::string
    traceBytes(const Trace &trace)
    {
        ByteWriter w;
        trace.saveState(w);
        return w.take();
    }

    ResultCache _inner;
    mutable std::mutex _mutex;
    std::uint64_t _inserts = 0;
    std::uint64_t _partial = 0;
};

TEST(Protocol, CachedFastStudyGivesTheCacheFullTraces)
{
    LogLevel old = setLogLevel(LogLevel::Quiet);
    TraceCheckingCache cache;
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.solver = SolverKind::Fast;
    cfg.jobs = 2;
    cfg.cache = &cache;
    std::string out = toJson(runFullStudy(cfg));
    setLogLevel(old);

    std::string golden = readFile(std::string(PVAR_TEST_DATA_DIR) +
                                  "/full_study_fast_iter1.json");
    ASSERT_FALSE(golden.empty());
    // The tool appends one newline after the document.
    EXPECT_EQ(out + "\n", golden);
    EXPECT_EQ(cache.inserts(), 36u); // 18 units x 2 modes
    EXPECT_EQ(cache.partial(), 0u);
}

// ---------------------------------------------------------------------
// Supervised studies: classification, retry, quarantine, determinism.
// ---------------------------------------------------------------------

/** Install a plan for one test; always uninstalls on scope exit. */
class PlanGuard
{
  public:
    explicit PlanGuard(FaultPlan plan)
    {
        installFaultPlan(
            std::make_shared<FaultPlan>(std::move(plan)));
    }
    ~PlanGuard() { clearFaultPlan(); }
};

/** A plan whose only rule faults experiment.run. */
FaultPlan
experimentFaultPlan(std::uint64_t seed, FaultKind kind, double p)
{
    FaultPlan plan(seed);
    FaultRule rule;
    rule.site = FaultSite::ExperimentRun;
    rule.kind = kind;
    rule.probability = p;
    plan.addRule(rule);
    return plan;
}

TEST(Classify, AcceptsAHealthyExperiment)
{
    ExperimentConfig cfg;
    ExperimentResult r = synthetic("A", {100, 100}, {10, 10});
    for (auto &it : r.iterations) {
        it.cooldownReachedTarget = true;
        it.tempAtWorkloadStart = Celsius(31.5);
        it.peakWorkloadTemp = Celsius(70.0);
    }
    EXPECT_EQ(classifyExperiment(r, cfg, ValidityGate{}),
              ExperimentStatus::Ok);
}

TEST(Classify, RejectsCooldownTimeoutHotStartAndRunaway)
{
    ExperimentConfig cfg; // cooldownTarget 32 C
    ValidityGate gate;    // +3 C margin, 120 C peak bound
    auto healthy = [] {
        ExperimentResult r = synthetic("A", {100}, {10});
        r.iterations[0].cooldownReachedTarget = true;
        r.iterations[0].tempAtWorkloadStart = Celsius(31.5);
        r.iterations[0].peakWorkloadTemp = Celsius(70.0);
        return r;
    };

    ExperimentResult timed_out = healthy();
    timed_out.iterations[0].cooldownReachedTarget = false;
    EXPECT_EQ(classifyExperiment(timed_out, cfg, gate),
              ExperimentStatus::InvalidRun);
    // ... unless the gate is told not to care.
    ValidityGate lax = gate;
    lax.requireCooldownTarget = false;
    EXPECT_EQ(classifyExperiment(timed_out, cfg, lax),
              ExperimentStatus::Ok);

    ExperimentResult hot_start = healthy();
    hot_start.iterations[0].tempAtWorkloadStart = Celsius(35.5);
    EXPECT_EQ(classifyExperiment(hot_start, cfg, gate),
              ExperimentStatus::InvalidRun);

    ExperimentResult runaway = healthy();
    runaway.iterations[0].peakWorkloadTemp = Celsius(130.0);
    EXPECT_EQ(classifyExperiment(runaway, cfg, gate),
              ExperimentStatus::InvalidRun);
}

TEST(Protocol, ReduceExcludesQuarantinedUnitsFromAggregates)
{
    std::vector<ExperimentResult> unc = {
        synthetic("A", {1000, 1000}, {500, 500}),
        synthetic("B", {860, 860}, {520, 520}),
    };
    std::vector<ExperimentResult> fix = {
        synthetic("A", {600, 600}, {300, 300}),
        synthetic("B", {600, 600}, {360, 360}),
    };
    SocStudy full = reduceSocStudy("SD-TEST", "Test Phone", unc, fix);

    // Bench unit B: the aggregates must match a study of A alone.
    unc[1] = ExperimentResult{};
    unc[1].unitId = "B";
    unc[1].status = ExperimentStatus::TransientFault;
    unc[1].attempts = 3;
    unc[1].quarantined = true;
    SocStudy benched =
        reduceSocStudy("SD-TEST", "Test Phone", unc, fix);

    EXPECT_EQ(benched.units.size(), 2u);
    EXPECT_EQ(benched.quarantinedUnits, 1u);
    EXPECT_TRUE(benched.units[1].quarantined);
    EXPECT_EQ(benched.units[1].unconstrainedStatus,
              ExperimentStatus::TransientFault);
    EXPECT_EQ(benched.units[1].unconstrainedAttempts, 3u);

    std::vector<ExperimentResult> only_a_unc = {unc[0]};
    std::vector<ExperimentResult> only_a_fix = {fix[0]};
    SocStudy only_a =
        reduceSocStudy("SD-TEST", "Test Phone", only_a_unc,
                       only_a_fix);
    EXPECT_EQ(benched.perfVariationPercent,
              only_a.perfVariationPercent);
    EXPECT_EQ(benched.energyVariationPercent,
              only_a.energyVariationPercent);
    EXPECT_EQ(benched.efficiencyIterPerWh,
              only_a.efficiencyIterPerWh);
    EXPECT_EQ(full.quarantinedUnits, 0u);
}

TEST(Supervised, FaultedStudyIsBitIdenticalAcrossJobs)
{
    LogLevel old = setLogLevel(LogLevel::Quiet);
    FaultPlan plan =
        experimentFaultPlan(2024, FaultKind::Transient, 0.5);
    SocStudy serial, parallel;
    {
        PlanGuard guard{FaultPlan(plan)};
        serial = runSocStudy("SD-805", quickStudyConfig(1));
    }
    {
        PlanGuard guard{FaultPlan(plan)};
        parallel = runSocStudy("SD-805", quickStudyConfig(8));
    }
    setLogLevel(old);
    expectStudiesBitIdentical(serial, parallel);

    // With p=0.5 per attempt the plan must actually have bitten:
    // at least one experiment needed a retry.
    std::uint32_t total_attempts = 0;
    for (const UnitOutcome &u : serial.units)
        total_attempts += u.unconstrainedAttempts + u.fixedAttempts;
    EXPECT_GT(total_attempts, 2 * serial.units.size());
}

// The supervisor runs every attempt as a cohort round. At batch 8 the
// three SD-805 units of one mode share a cohort, so a retry runs in a
// round alongside its cohort's other members (or alone after them).
constexpr int kBatches[] = {1, 8};

TEST(Supervised, ExhaustedBudgetQuarantinesTheUnit)
{
    for (int batch : kBatches) {
        SCOPED_TRACE(strfmt("batch %d", batch));
        LogLevel old = setLogLevel(LogLevel::Quiet);
        PlanGuard guard(
            experimentFaultPlan(1, FaultKind::Transient, 1.0));
        StudyConfig cfg = quickStudyConfig(1, batch);
        SocStudy s = runSocStudy("SD-805", cfg);
        setLogLevel(old);

        ASSERT_EQ(s.units.size(), 3u);
        EXPECT_EQ(s.quarantinedUnits, 3u);
        for (const UnitOutcome &u : s.units) {
            EXPECT_TRUE(u.quarantined);
            EXPECT_EQ(u.unconstrainedStatus,
                      ExperimentStatus::TransientFault);
            EXPECT_EQ(u.unconstrainedAttempts,
                      static_cast<std::uint32_t>(cfg.retry.maxAttempts));
            EXPECT_EQ(u.fixedAttempts,
                      static_cast<std::uint32_t>(cfg.retry.maxAttempts));
        }
        // Aggregates over zero healthy units are zero, never NaN.
        EXPECT_EQ(s.perfVariationPercent, 0.0);
        EXPECT_EQ(s.efficiencyIterPerWh, 0.0);
    }
}

TEST(Supervised, PermanentFaultAlwaysPropagates)
{
    for (int batch : kBatches) {
        SCOPED_TRACE(strfmt("batch %d", batch));
        LogLevel old = setLogLevel(LogLevel::Quiet);
        PlanGuard guard(
            experimentFaultPlan(1, FaultKind::Permanent, 1.0));
        EXPECT_THROW(runSocStudy("SD-805", quickStudyConfig(1, batch)),
                     PermanentFaultError);
        setLogLevel(old);
    }
}

TEST(Supervised, NoQuarantineEscalatesExhaustion)
{
    for (int batch : kBatches) {
        SCOPED_TRACE(strfmt("batch %d", batch));
        LogLevel old = setLogLevel(LogLevel::Quiet);
        PlanGuard guard(
            experimentFaultPlan(1, FaultKind::Transient, 1.0));
        StudyConfig cfg = quickStudyConfig(1, batch);
        cfg.retry.quarantine = false;
        EXPECT_THROW(runSocStudy("SD-805", cfg), PermanentFaultError);
        setLogLevel(old);
    }
}

/**
 * The experiment.run decision of one (task, attempt) under @p plan,
 * made the way the supervisor makes it: first check in a fresh frame
 * keyed by faultScopeId(task, attempt).
 */
FaultHit
runDecision(const FaultPlan &plan, std::uint64_t task,
            std::uint64_t attempt)
{
    PlanGuard guard{FaultPlan(plan)};
    FaultFrame frame(faultScopeId(task, attempt));
    FaultFrameGuard active(&frame);
    return faultCheck(FaultSite::ExperimentRun);
}

TEST(Supervised, RetriedExperimentRecoversWithFreshAttempt)
{
    // Find a seed whose decision pattern is: task 0 (unit 0,
    // unconstrained) faults on its first attempt only, and none of
    // the study's other five tasks faults at all. The scan uses the
    // same (scope, count) hash the supervisor does, so the chosen
    // seed is stable by construction.
    constexpr std::uint64_t kTasks = 6; // 3 units x 2 modes
    std::uint64_t seed = 0;
    bool found = false;
    for (; seed < 4096 && !found; ++seed) {
        FaultPlan plan =
            experimentFaultPlan(seed, FaultKind::Transient, 0.5);
        found = runDecision(plan, 0, 0).fired &&
                !runDecision(plan, 0, 1).fired;
        for (std::uint64_t t = 1; t < kTasks && found; ++t)
            found = !runDecision(plan, t, 0).fired;
    }
    ASSERT_TRUE(found);
    --seed;

    SocStudy reference;
    for (int batch : kBatches) {
        SCOPED_TRACE(strfmt("batch %d", batch));
        LogLevel old = setLogLevel(LogLevel::Quiet);
        PlanGuard guard(
            experimentFaultPlan(seed, FaultKind::Transient, 0.5));
        SocStudy s = runSocStudy("SD-805", quickStudyConfig(1, batch));
        setLogLevel(old);

        ASSERT_EQ(s.units.size(), 3u);
        EXPECT_EQ(s.quarantinedUnits, 0u);
        EXPECT_EQ(s.units[0].unconstrainedStatus, ExperimentStatus::Ok);
        EXPECT_EQ(s.units[0].unconstrainedAttempts, 2u)
            << "first attempt faulted, the retry recovered";
        EXPECT_GT(s.units[0].meanScore, 0.0);
        for (std::size_t u = 0; u < s.units.size(); ++u) {
            EXPECT_EQ(s.units[u].fixedStatus, ExperimentStatus::Ok);
            EXPECT_EQ(s.units[u].fixedAttempts, 1u);
            if (u > 0) {
                EXPECT_EQ(s.units[u].unconstrainedAttempts, 1u);
            }
        }
        if (batch == kBatches[0])
            reference = s;
        else
            expectStudiesBitIdentical(reference, s);
    }
}

TEST(Supervised, PermanentFaultOnRetryInWideCohortPropagates)
{
    // Find a seed where no task's first attempt draws the permanent
    // rule, but task 0 (unit 0, unconstrained) draws the transient one
    // and then the permanent one on its retry. At batch 8 that retry
    // runs in round 1 of the three-member unconstrained cohort.
    auto plan_for = [](std::uint64_t seed) {
        FaultPlan plan(seed);
        FaultRule transient;
        transient.site = FaultSite::ExperimentRun;
        transient.kind = FaultKind::Transient;
        transient.probability = 0.5;
        plan.addRule(transient);
        FaultRule permanent;
        permanent.site = FaultSite::ExperimentRun;
        permanent.kind = FaultKind::Permanent;
        permanent.probability = 0.5;
        plan.addRule(permanent);
        return plan;
    };
    constexpr std::uint64_t kTasks = 6; // 3 units x 2 modes
    std::uint64_t seed = 0;
    bool found = false;
    for (; seed < 4096 && !found; ++seed) {
        FaultPlan plan = plan_for(seed);
        FaultHit first = runDecision(plan, 0, 0);
        FaultHit retry = runDecision(plan, 0, 1);
        found = first.fired && first.kind == FaultKind::Transient &&
                retry.fired && retry.kind == FaultKind::Permanent;
        for (std::uint64_t t = 1; t < kTasks && found; ++t)
            found = runDecision(plan, t, 0).kind != FaultKind::Permanent;
    }
    ASSERT_TRUE(found);
    --seed;

    LogLevel old = setLogLevel(LogLevel::Quiet);
    PlanGuard guard(plan_for(seed));
    EXPECT_THROW(runSocStudy("SD-805", quickStudyConfig(1, 8)),
                 PermanentFaultError);
    setLogLevel(old);
}

/**
 * data/faulted_study_{stepped,fast}_iter1.json are the byte-exact
 * output of `pvar_study --iterations 1 --jobs 1 --json --fault-plan P
 * --solver S`, captured on the tree that still had a separate serial
 * supervisor, under scripts/check.sh's pinned chaos plan P. They pin
 * the retry semantics: which attempts fault, how many each experiment
 * takes, and which units end up quarantined. Every (jobs, batch) must
 * reproduce them.
 */
TEST(Supervised, FaultedStudyMatchesGolden)
{
    FaultPlan plan(20250811);
    FaultRule run;
    run.site = FaultSite::ExperimentRun;
    run.kind = FaultKind::Transient;
    run.probability = 0.35;
    plan.addRule(run);
    FaultRule regulate;
    regulate.site = FaultSite::ThermaboxRegulate;
    regulate.kind = FaultKind::Transient;
    regulate.probability = 0.0005;
    plan.addRule(regulate);

    const std::pair<SolverKind, const char *> solvers[] = {
        {SolverKind::Stepped, "stepped"}, {SolverKind::Fast, "fast"}};
    const std::pair<int, int> widths[] = {{1, 1}, {4, 1}, {4, 8}, {2, 16}};
    for (const auto &[solver, name] : solvers) {
        std::string golden = readFile(
            strfmt("%s/faulted_study_%s_iter1.json", PVAR_TEST_DATA_DIR,
                   name));
        ASSERT_FALSE(golden.empty()) << name;
        for (const auto &[jobs, batch] : widths) {
            SCOPED_TRACE(
                strfmt("%s jobs %d batch %d", name, jobs, batch));
            StudyConfig cfg;
            cfg.iterations = 1;
            cfg.jobs = jobs;
            cfg.batch = batch;
            cfg.solver = solver;
            LogLevel old = setLogLevel(LogLevel::Quiet);
            PlanGuard guard{FaultPlan(plan)};
            std::string out = toJson(runFullStudy(cfg));
            setLogLevel(old);
            // The tool appends one newline after the document.
            EXPECT_EQ(out + "\n", golden);
        }
    }
}

} // namespace
} // namespace pvar
