/**
 * @file
 * Tests for the batched die-cohort engine (accubench/batch.hh).
 *
 * The engine's contract is bitwise: per-die results are identical for
 * every cohort width, at any jobs count, with or without fault
 * injection — batch is a pure throughput knob. These tests pin that
 * contract three ways: against a golden full-study capture from the
 * pre-batch tree, across widths under both solvers, and member-by-
 * member against individual runExperiment() calls on a cohort whose
 * units throttle at different times (split/rejoin divergence).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accubench/batch.hh"
#include "sampling/crowd.hh"
#include "accubench/experiment.hh"
#include "sampling/lower_bound.hh"
#include "accubench/protocol.hh"
#include "device/fleet.hh"
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

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

/** The study pvar_study runs for the golden capture. */
StudyConfig
goldenStudyConfig(int jobs, int batch)
{
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.jobs = jobs;
    cfg.batch = batch;
    cfg.solver = SolverKind::Fast;
    return cfg;
}

/** Shortened experiments so stepped-solver sweeps stay fast. */
StudyConfig
quickStudyConfig(int jobs, int batch, SolverKind solver)
{
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.jobs = jobs;
    cfg.batch = batch;
    cfg.solver = solver;
    cfg.accubench.warmupDuration = Time::sec(20);
    cfg.accubench.workloadDuration = Time::sec(30);
    cfg.accubench.cooldownTimeout = Time::minutes(5);
    return cfg;
}

class QuietScope
{
  public:
    QuietScope() : _old(setLogLevel(LogLevel::Quiet)) {}
    ~QuietScope() { setLogLevel(_old); }

  private:
    LogLevel _old;
};

TEST(Batch, ResolveBatchSizePicksSolverDefault)
{
    EXPECT_EQ(resolveBatchSize(0, SolverKind::Fast), 16);
    EXPECT_EQ(resolveBatchSize(0, SolverKind::Stepped), 1);
    EXPECT_EQ(resolveBatchSize(7, SolverKind::Fast), 7);
    EXPECT_EQ(resolveBatchSize(7, SolverKind::Stepped), 7);
}

// ---------------------------------------------------------------------
// Golden: the batched engine vs the pre-batch serial tree.
// ---------------------------------------------------------------------

/**
 * data/full_study_fast_iter1.json is the byte-exact output of
 * `pvar_study --iterations 1 --jobs 1 --solver fast --json` captured
 * on the tree *before* the cohort engine existed. Single-die (B=1)
 * and batched (B=16) runs must both reproduce it exactly.
 */
TEST(Batch, FullStudyMatchesPreBatchGolden)
{
    std::string golden =
        readFile(std::string(PVAR_TEST_DATA_DIR) +
                 "/full_study_fast_iter1.json");
    ASSERT_FALSE(golden.empty());

    QuietScope quiet;
    std::string single = toJson(runFullStudy(goldenStudyConfig(1, 1)));
    std::string batched =
        toJson(runFullStudy(goldenStudyConfig(4, 16)));
    // The tool appends one newline after the document.
    EXPECT_EQ(single + "\n", golden);
    EXPECT_EQ(batched + "\n", golden);
}

// ---------------------------------------------------------------------
// Cross-batch determinism: the batch-size invariant.
// ---------------------------------------------------------------------

TEST(Batch, FastStudyIsBitIdenticalAcrossBatchAndJobs)
{
    QuietScope quiet;
    std::string b1 = toJson(runFullStudy(goldenStudyConfig(1, 1)));
    std::string b8 = toJson(runFullStudy(goldenStudyConfig(4, 8)));
    std::string b64 = toJson(runFullStudy(goldenStudyConfig(8, 64)));
    EXPECT_EQ(b1, b8);
    EXPECT_EQ(b1, b64);
}

TEST(Batch, SteppedStudyIsBitIdenticalAcrossBatch)
{
    QuietScope quiet;
    std::string b1 = toJson(runSocStudy(
        "SD-805", quickStudyConfig(1, 1, SolverKind::Stepped)));
    std::string b8 = toJson(runSocStudy(
        "SD-805", quickStudyConfig(4, 8, SolverKind::Stepped)));
    EXPECT_EQ(b1, b8);
}

/** Install a plan for one test; always uninstalls on scope exit. */
class PlanGuard
{
  public:
    explicit PlanGuard(FaultPlan plan)
    {
        installFaultPlan(std::make_shared<FaultPlan>(std::move(plan)));
    }
    ~PlanGuard() { clearFaultPlan(); }
};

TEST(Batch, FaultedStudyIsBitIdenticalAcrossBatch)
{
    FaultPlan plan(20250808);
    FaultRule rule;
    rule.site = FaultSite::ExperimentRun;
    rule.kind = FaultKind::Transient;
    rule.probability = 0.35;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    QuietScope quiet;
    SocStudy b1 = runSocStudy(
        "SD-805", quickStudyConfig(1, 1, SolverKind::Fast));
    SocStudy b8 = runSocStudy(
        "SD-805", quickStudyConfig(4, 8, SolverKind::Fast));
    EXPECT_EQ(toJson(b1), toJson(b8));
    // The retry supervisor's attempt counters must match too — the
    // per-(task, attempt) fault scopes are part of the invariant.
    ASSERT_EQ(b1.units.size(), b8.units.size());
    for (std::size_t i = 0; i < b1.units.size(); ++i) {
        EXPECT_EQ(b1.units[i].unconstrainedAttempts,
                  b8.units[i].unconstrainedAttempts);
        EXPECT_EQ(b1.units[i].fixedAttempts, b8.units[i].fixedAttempts);
    }
}

// ---------------------------------------------------------------------
// Split/rejoin: cohort members vs individual runs.
// ---------------------------------------------------------------------

/**
 * A cohort of units at spread-out silicon corners: the hot (fast,
 * leaky) unit trips thermal throttling earlier than the cold one, so
 * the members' segment boundaries diverge mid-tick and the cohort
 * splits and rejoins repeatedly. Every member must still produce
 * exactly the bytes a solo runExperiment() yields.
 */
TEST(Batch, DivergingCohortMatchesIndividualRuns)
{
    const double corners[] = {-2.5, 0.0, 2.5};

    ExperimentConfig exp;
    exp.mode = WorkloadMode::Unconstrained;
    exp.iterations = 2;
    exp.solver = SolverKind::Fast;
    exp.accubench.warmupDuration = Time::sec(20);
    exp.accubench.workloadDuration = Time::sec(30);
    exp.accubench.cooldownTimeout = Time::minutes(5);

    QuietScope quiet;

    // Solo reference runs, one device per corner.
    std::vector<std::string> solo;
    for (double c : corners) {
        UnitCorner corner;
        corner.id = strfmt("div-%+.1f", c);
        corner.corner = c;
        auto device = makeUnitForSoc("SD-820", corner);
        solo.push_back(toJson(runExperiment(*device, exp)));
    }

    // The same three units as one cohort, fresh devices.
    std::vector<std::unique_ptr<Device>> devices;
    std::vector<CohortTask> tasks(3);
    for (std::size_t i = 0; i < 3; ++i) {
        UnitCorner corner;
        corner.id = strfmt("div-%+.1f", corners[i]);
        corner.corner = corners[i];
        devices.push_back(makeUnitForSoc("SD-820", corner));
        tasks[i].device = devices.back().get();
        tasks[i].cfg = exp;
    }
    std::vector<ExperimentResult> cohort = runExperimentCohort(tasks);

    ASSERT_EQ(cohort.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(toJson(cohort[i]), solo[i]);

    // The corners genuinely diverge — equal scores would mean the
    // test lost its throttle-divergence teeth.
    EXPECT_NE(cohort[0].meanScore(), cohort[2].meanScore());
}

/**
 * Same invariant for the thermal traces: member-interleaved fast
 * segments must sample the identical (time, value) sequence a solo
 * run records.
 */
TEST(Batch, DivergingCohortTracesMatchIndividualRuns)
{
    ExperimentConfig exp;
    exp.mode = WorkloadMode::Unconstrained;
    exp.iterations = 1;
    exp.solver = SolverKind::Fast;
    exp.accubench.warmupDuration = Time::sec(10);
    exp.accubench.workloadDuration = Time::sec(20);
    exp.accubench.cooldownTimeout = Time::minutes(5);

    QuietScope quiet;
    const double corners[] = {-2.0, 2.0};

    std::vector<ExperimentResult> solo;
    for (double c : corners) {
        UnitCorner corner;
        corner.id = "trace-unit";
        corner.corner = c;
        auto device = makeUnitForSoc("SD-821", corner);
        solo.push_back(runExperiment(*device, exp));
    }

    std::vector<std::unique_ptr<Device>> devices;
    std::vector<CohortTask> tasks(2);
    for (std::size_t i = 0; i < 2; ++i) {
        UnitCorner corner;
        corner.id = "trace-unit";
        corner.corner = corners[i];
        devices.push_back(makeUnitForSoc("SD-821", corner));
        tasks[i].device = devices.back().get();
        tasks[i].cfg = exp;
    }
    std::vector<ExperimentResult> cohort = runExperimentCohort(tasks);

    for (std::size_t i = 0; i < 2; ++i) {
        const TraceChannel &a = solo[i].trace->channel("die_temp");
        const TraceChannel &b = cohort[i].trace->channel("die_temp");
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            EXPECT_EQ(a.samples()[s].when, b.samples()[s].when);
            EXPECT_EQ(a.samples()[s].value, b.samples()[s].value);
        }
    }
}

// ---------------------------------------------------------------------
// Trace keeping: a recording choice that no other result byte sees.
// ---------------------------------------------------------------------

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every iteration record of @p a and @p b, bit for bit. */
void
expectIterationsBitEqual(const ExperimentResult &a,
                         const ExperimentResult &b)
{
    EXPECT_EQ(a.unitId, b.unitId);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.socName, b.socName);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
        const IterationResult &x = a.iterations[i];
        const IterationResult &y = b.iterations[i];
        EXPECT_EQ(bits(x.score), bits(y.score));
        EXPECT_EQ(bits(x.workloadEnergy.value()),
                  bits(y.workloadEnergy.value()));
        EXPECT_EQ(bits(x.totalEnergy.value()),
                  bits(y.totalEnergy.value()));
        EXPECT_EQ(x.warmupTime, y.warmupTime);
        EXPECT_EQ(x.cooldownTime, y.cooldownTime);
        EXPECT_EQ(x.workloadTime, y.workloadTime);
        EXPECT_EQ(bits(x.tempAtWorkloadStart.value()),
                  bits(y.tempAtWorkloadStart.value()));
        EXPECT_EQ(bits(x.peakWorkloadTemp.value()),
                  bits(y.peakWorkloadTemp.value()));
        EXPECT_EQ(x.cooldownReachedTarget, y.cooldownReachedTarget);
    }
}

std::string
traceBytes(const Trace &trace)
{
    ByteWriter w;
    trace.saveState(w);
    return w.take();
}

/** One cohort of @p entry's whole fleet, as its study runs it. */
std::vector<ExperimentResult>
runFleetCohort(const RegistryEntry &entry, const ExperimentConfig &exp,
               bool keep_trace)
{
    std::vector<std::unique_ptr<Device>> devices;
    std::vector<CohortTask> tasks(entry.units.size());
    for (std::size_t u = 0; u < entry.units.size(); ++u) {
        devices.push_back(buildDevice(entry.spec, entry.units[u]));
        tasks[u].device = devices.back().get();
        tasks[u].cfg = exp;
        tasks[u].keepTrace = keep_trace;
    }
    return runExperimentCohort(tasks);
}

/**
 * A cohort that keeps no trace must compute exactly what one that
 * keeps it computes: trace recording reads the device and never
 * feeds back. Every builtin model, both study modes.
 */
TEST(Batch, UnkeptTraceLeavesEveryIterationBitEqual)
{
    QuietScope quiet;
    for (const RegistryEntry &entry : DeviceRegistry::builtin().entries()) {
        for (WorkloadMode mode : {WorkloadMode::Unconstrained,
                                  WorkloadMode::FixedFrequency}) {
            SCOPED_TRACE(strfmt("%s %s", entry.spec.socName.c_str(),
                                mode == WorkloadMode::Unconstrained
                                    ? "unconstrained"
                                    : "fixed-frequency"));
            ExperimentConfig exp;
            exp.mode = mode;
            exp.iterations = 1;
            exp.solver = SolverKind::Fast;
            exp.supply = SupplyChoice::MonsoonExplicit;
            exp.monsoonVoltage = entry.monsoonVoltage;
            exp.fixedFrequency = entry.fixedFrequency;

            std::vector<ExperimentResult> kept =
                runFleetCohort(entry, exp, true);
            std::vector<ExperimentResult> unkept =
                runFleetCohort(entry, exp, false);
            ASSERT_EQ(kept.size(), entry.units.size());
            ASSERT_EQ(unkept.size(), kept.size());
            for (std::size_t u = 0; u < kept.size(); ++u) {
                expectIterationsBitEqual(kept[u], unkept[u]);
                EXPECT_TRUE(kept[u].trace->hasChannel("die_temp"));
                EXPECT_TRUE(kept[u].trace->hasChannel("phase"));
                EXPECT_EQ(unkept[u].trace, emptyTrace());
                EXPECT_TRUE(unkept[u].trace->channelNames().empty());
            }
        }
    }
}

/**
 * A live point checkpoints the trace recorded so far, so a run with
 * live points records its trace even when its task keeps none: the
 * captured bytes, the restored run and the result trace all match a
 * kept run's.
 */
TEST(Batch, LivePointRunRecordsItsTraceEvenUnkept)
{
    ExperimentConfig exp;
    exp.mode = WorkloadMode::Unconstrained;
    exp.iterations = 1;
    exp.solver = SolverKind::Fast;
    exp.accubench.warmupDuration = Time::sec(10);
    exp.accubench.workloadDuration = Time::sec(20);
    exp.accubench.cooldownTimeout = Time::minutes(5);
    exp.livePointKey = "live-point-unit";

    QuietScope quiet;
    UnitCorner corner;
    corner.id = "live-point-unit";
    corner.corner = 1.0;
    auto run = [&](LivePointCache &cache, bool keep_trace) {
        auto device = makeUnitForSoc("SD-821", corner);
        std::vector<CohortTask> tasks(1);
        tasks[0].device = device.get();
        tasks[0].cfg = exp;
        tasks[0].cfg.livePoints = &cache;
        tasks[0].keepTrace = keep_trace;
        return std::move(runExperimentCohort(tasks).front());
    };

    MemoryLivePointCache kept_cache, unkept_cache;
    ExperimentResult kept = run(kept_cache, true);
    ExperimentResult unkept = run(unkept_cache, false);
    std::string kept_point, unkept_point;
    ASSERT_TRUE(kept_cache.fetch(exp.livePointKey, kept_point));
    ASSERT_TRUE(unkept_cache.fetch(exp.livePointKey, unkept_point));
    EXPECT_EQ(unkept_point, kept_point);

    ASSERT_TRUE(kept.trace->hasChannel("die_temp"));
    expectIterationsBitEqual(kept, unkept);
    EXPECT_EQ(traceBytes(*unkept.trace), traceBytes(*kept.trace));

    // Warm: the unkept run restores the checkpoint, trace included.
    ExperimentResult restored = run(unkept_cache, false);
    expectIterationsBitEqual(kept, restored);
    EXPECT_EQ(traceBytes(*restored.trace), traceBytes(*kept.trace));
}

// ---------------------------------------------------------------------
// Downstream consumers: crowd and sample-size study.
// ---------------------------------------------------------------------

TEST(Batch, CrowdIsBitIdenticalAcrossBatch)
{
    CrowdConfig cfg;
    cfg.units = 6;
    cfg.seed = 99;
    cfg.solver = SolverKind::Fast;
    cfg.accubench.warmupDuration = Time::sec(10);
    cfg.accubench.workloadDuration = Time::sec(20);
    cfg.accubench.cooldownTimeout = Time::minutes(5);

    QuietScope quiet;
    cfg.batch = 1;
    CrowdResult b1 = simulateCrowd(cfg);
    cfg.batch = 4;
    cfg.jobs = 2;
    CrowdResult b4 = simulateCrowd(cfg);

    ASSERT_EQ(b1.outcomes.size(), b4.outcomes.size());
    for (std::size_t i = 0; i < b1.outcomes.size(); ++i) {
        EXPECT_EQ(b1.outcomes[i].report.unitId,
                  b4.outcomes[i].report.unitId);
        EXPECT_EQ(b1.outcomes[i].report.score,
                  b4.outcomes[i].report.score);
        EXPECT_EQ(b1.outcomes[i].report.estimatedAmbientC,
                  b4.outcomes[i].report.estimatedAmbientC);
        EXPECT_EQ(b1.outcomes[i].trueAmbientC,
                  b4.outcomes[i].trueAmbientC);
    }
    // The streaming population summary folds in unit order, so it is
    // bit-identical too.
    EXPECT_EQ(b1.scores.mean(), b4.scores.mean());
    EXPECT_EQ(b1.scores.median(), b4.scores.median());
    EXPECT_EQ(b1.scores.p90(), b4.scores.p90());
}

TEST(Batch, SampleSizeStudyIsBitIdenticalAcrossBatch)
{
    LowerBoundConfig cfg;
    cfg.sampleSizes = {2, 3};
    cfg.replicates = 2;
    cfg.seed = 7;
    cfg.solver = SolverKind::Fast;
    cfg.accubench.warmupDuration = Time::sec(10);
    cfg.accubench.workloadDuration = Time::sec(20);
    cfg.accubench.cooldownTimeout = Time::minutes(5);

    QuietScope quiet;
    cfg.batch = 1;
    std::vector<LowerBoundPoint> b1 = sampleSizeStudy(cfg);
    cfg.batch = 8;
    cfg.jobs = 2;
    std::vector<LowerBoundPoint> b8 = sampleSizeStudy(cfg);

    ASSERT_EQ(b1.size(), b8.size());
    for (std::size_t i = 0; i < b1.size(); ++i) {
        EXPECT_EQ(b1[i].meanSpreadPercent, b8[i].meanSpreadPercent);
        EXPECT_EQ(b1[i].minSpreadPercent, b8[i].minSpreadPercent);
        EXPECT_EQ(b1[i].maxSpreadPercent, b8[i].maxSpreadPercent);
    }
}

// ---------------------------------------------------------------------
// Cache integration on the batched path.
// ---------------------------------------------------------------------

TEST(Batch, ResultCacheLookupInsertMatchesGetOrCompute)
{
    QuietScope quiet;
    // Duplicated units inside one study: width-8 cohorts must dedupe
    // through lookup/insert exactly like width-1 cohorts do.
    ResultCache serial_cache;
    StudyConfig serial_cfg = quickStudyConfig(1, 1, SolverKind::Fast);
    serial_cfg.cache = &serial_cache;
    SocStudy serial = runSocStudy("SD-805", serial_cfg);

    ResultCache batched_cache;
    StudyConfig batched_cfg = quickStudyConfig(1, 8, SolverKind::Fast);
    batched_cfg.cache = &batched_cache;
    SocStudy batched = runSocStudy("SD-805", batched_cfg);

    EXPECT_EQ(toJson(serial), toJson(batched));
    EXPECT_EQ(serial_cache.stats().hits, batched_cache.stats().hits);
    EXPECT_EQ(serial_cache.stats().misses,
              batched_cache.stats().misses);
    EXPECT_EQ(serial_cache.stats().entries,
              batched_cache.stats().entries);
}

TEST(Batch, WarmCacheServesBatchedStudy)
{
    QuietScope quiet;
    ResultCache cache;
    StudyConfig cfg = quickStudyConfig(2, 8, SolverKind::Fast);
    cfg.cache = &cache;
    SocStudy cold = runSocStudy("SD-805", cfg);
    std::uint64_t cold_misses = cache.stats().misses;
    SocStudy warm = runSocStudy("SD-805", cfg);

    EXPECT_EQ(toJson(cold), toJson(warm));
    // Every warm experiment is served from the cache: no new misses.
    EXPECT_EQ(cache.stats().misses, cold_misses);
    EXPECT_GE(cache.stats().hits, 6u); // 3 units x 2 modes
}

} // namespace
} // namespace pvar
