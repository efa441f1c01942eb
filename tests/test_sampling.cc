/**
 * @file
 * Tests for the population-scale sampling layer (src/sampling/):
 *
 *  - the population model (pure function of seed and index, sorted
 *    corners, equal-population bins);
 *  - the stratified sampler's statistical contract, pinned against an
 *    exhaustive small-population oracle (estimates near truth, CI
 *    coverage near nominal across seeds);
 *  - byte-invariance of the study report across jobs/batch values;
 *  - the live-point checkpoint contract: warm reruns are
 *    byte-identical to cold runs and provably go through the restore
 *    path; corrupt checkpoints degrade to a cold start, never to
 *    different bits.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "device/fleet.hh"
#include "sampling/cohort_runner.hh"
#include "sampling/lower_bound.hh"
#include "sampling/population.hh"
#include "sampling/sampler.hh"

namespace pvar
{
namespace
{

/** Short phases keep each Fast-solver experiment cheap. */
void
shorten(AccubenchConfig &accubench)
{
    accubench.warmupDuration = Time::sec(30);
    accubench.workloadDuration = Time::sec(60);
}

CrowdStudyConfig
quickStudy(std::uint64_t size, std::uint64_t seed, int strata,
           int rounds)
{
    CrowdStudyConfig cfg;
    cfg.population.socName = "SD-821";
    cfg.population.size = size;
    cfg.population.seed = seed;
    cfg.strata = strata;
    cfg.minRounds = rounds;
    cfg.iterations = 1;
    cfg.solver = SolverKind::Fast;
    shorten(cfg.accubench);
    return cfg;
}

/** Exhaustive ground truth: every die of the population, simulated
 *  with exactly the sampler's per-die experiment. */
struct Truth
{
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
};

Truth
exhaustiveTruth(const CrowdStudyConfig &cfg)
{
    auto n = static_cast<std::size_t>(cfg.population.size);
    std::vector<CrowdDie> dies(n);
    for (std::size_t i = 0; i < n; ++i)
        dies[i] = crowdDie(cfg.population, i);

    std::vector<double> scores(n);
    runCohortWindows(
        n, cfg.jobs, cfg.batch, cfg.solver,
        [&](std::size_t i) {
            return makeUnitForSoc(cfg.population.socName,
                                  dies[i].corner);
        },
        [&](std::size_t i) { return crowdDieExperiment(cfg, dies[i]); },
        [&](std::size_t i, Device &, ExperimentResult &r) {
            scores[i] = r.meanScore();
        });

    Truth t;
    double sum = 0.0;
    for (double s : scores)
        sum += s;
    t.mean = sum / static_cast<double>(n);
    t.p50 = exactQuantile(scores, 0.5);
    t.p90 = exactQuantile(scores, 0.9);
    return t;
}

// ---------------------------------------------------------------------
// Population model.
// ---------------------------------------------------------------------

TEST(CrowdPopulation, PureFunctionOfSeedAndIndex)
{
    CrowdPopulationConfig pop;
    pop.size = 1000;
    pop.seed = 7;
    CrowdDie a = crowdDie(pop, 123);
    CrowdDie b = crowdDie(pop, 123);
    EXPECT_EQ(a.corner.id, b.corner.id);
    EXPECT_DOUBLE_EQ(a.corner.corner, b.corner.corner);
    EXPECT_DOUBLE_EQ(a.corner.leakResidual, b.corner.leakResidual);
    EXPECT_DOUBLE_EQ(a.ambientC, b.ambientC);
    EXPECT_EQ(a.bin, b.bin);

    pop.seed = 8;
    CrowdDie c = crowdDie(pop, 123);
    EXPECT_NE(a.corner.corner, c.corner.corner);
}

TEST(CrowdPopulation, CornersSortedByIndex)
{
    // Index order IS corner order: that is what makes equal index
    // strata equal-probability corner strata.
    CrowdPopulationConfig pop;
    pop.size = 4096;
    pop.seed = 3;
    double prev = crowdDie(pop, 0).corner.corner;
    for (std::uint64_t i = 1; i < pop.size; i += 64) {
        double cur = crowdDie(pop, i).corner.corner;
        EXPECT_LE(prev, cur) << "index " << i;
        prev = cur;
    }
}

TEST(CrowdPopulation, BinsAreEqualPopulationAndDoNotTouchVoltageBin)
{
    CrowdPopulationConfig pop;
    pop.size = 7000;
    pop.seed = 11;
    std::map<int, int> counts;
    for (std::uint64_t i = 0; i < pop.size; i += 7) {
        CrowdDie d = crowdDie(pop, i);
        ASSERT_GE(d.bin, 0);
        ASSERT_LT(d.bin, 7);
        ++counts[d.bin];
        // The label must never leak into the voltage-table selector.
        EXPECT_EQ(d.corner.bin, -1);
    }
    ASSERT_EQ(counts.size(), 7u);
    for (const auto &[bin, count] : counts)
        EXPECT_NEAR(count, 1000 / 7, 40) << "bin " << bin;
}

TEST(CrowdPopulation, AmbientsSpanTheConfiguredRange)
{
    CrowdPopulationConfig pop;
    pop.size = 2000;
    pop.seed = 1;
    double lo = 1e9, hi = -1e9;
    for (std::uint64_t i = 0; i < pop.size; i += 13) {
        double a = crowdDie(pop, i).ambientC;
        EXPECT_GE(a, pop.ambientLoC);
        EXPECT_LE(a, pop.ambientHiC);
        lo = std::min(lo, a);
        hi = std::max(hi, a);
    }
    EXPECT_LT(lo, pop.ambientLoC + 8.0);
    EXPECT_GT(hi, pop.ambientHiC - 8.0);
}

// ---------------------------------------------------------------------
// Oracle: the sampler versus an exhaustive small population.
// ---------------------------------------------------------------------

TEST(CrowdSampler, EstimatesMatchExhaustive512DieTruth)
{
    CrowdStudyConfig cfg = quickStudy(512, 1, 8, 6);
    Truth truth = exhaustiveTruth(cfg);
    ASSERT_GT(truth.mean, 0.0);

    CrowdStudyResult r = runCrowdStudy(cfg);
    EXPECT_EQ(r.rounds, 6);
    EXPECT_EQ(r.sampled, 48u);

    // Headline estimates land near the exhaustive truth. The CI
    // bound is the statistical contract; the flat 5% is a backstop
    // so a miscomputed (huge) half-width cannot hide a broken
    // estimator.
    EXPECT_NEAR(r.scoreMean.value, truth.mean,
                std::max(2.0 * r.scoreMean.halfWidth,
                         0.05 * truth.mean));
    EXPECT_NEAR(r.scoreP50.value, truth.p50, 0.05 * truth.p50);
    EXPECT_NEAR(r.scoreP90.value, truth.p90, 0.05 * truth.p90);

    // The pooled P² sketch sees the same 48 dies; its percentile
    // view must agree with the replicate estimates to sketch accuracy.
    EXPECT_EQ(r.pooledScores.count(), 48u);
    EXPECT_NEAR(r.pooledScores.median(), truth.p50, 0.06 * truth.p50);

    // Bin shares: seven equal-population bins, so every share
    // estimate should sit near 1/7 within its own interval plus
    // sampling slack.
    double total = 0.0;
    for (const BinShareEstimate &b : r.binShares)
        total += b.share.value;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CrowdSampler, CiCoverageNearNominalAcrossSeeds)
{
    // The round-replicate interval is a real 95% interval: across 20
    // independent populations (seed also reseeds the sampling plan),
    // the exhaustive truth should fall inside the mean-score CI in
    // roughly 19 of 20 studies. >= 15 of 20 keeps the pin loose
    // enough to survive estimator-neutral perturbations while still
    // catching a broken variance formula (whose coverage collapses).
    int covered = 0;
    const int kSeeds = 20;
    for (int seed = 1; seed <= kSeeds; ++seed) {
        CrowdStudyConfig cfg =
            quickStudy(128, static_cast<std::uint64_t>(seed), 4, 4);
        Truth truth = exhaustiveTruth(cfg);
        CrowdStudyResult r = runCrowdStudy(cfg);
        if (std::abs(r.scoreMean.value - truth.mean) <=
            r.scoreMean.halfWidth) {
            ++covered;
        }
    }
    EXPECT_GE(covered, 15) << "coverage collapsed: " << covered
                           << "/" << kSeeds;
    EXPECT_GT(covered, 0);
}

TEST(CrowdSampler, AdaptiveLoopStopsAtTarget)
{
    CrowdStudyConfig cfg = quickStudy(4096, 2, 8, 2);
    cfg.maxRounds = 64;
    cfg.ciTargetPercent = 2.0;
    CrowdStudyResult r = runCrowdStudy(cfg);
    EXPECT_LE(r.achievedRelErrPercent, 2.0);
    EXPECT_GE(r.rounds, 2);

    // A tighter target costs at least as many rounds.
    CrowdStudyConfig tight = cfg;
    tight.ciTargetPercent = 0.5;
    CrowdStudyResult rt = runCrowdStudy(tight);
    EXPECT_GE(rt.rounds, r.rounds);
}

// ---------------------------------------------------------------------
// Determinism: the report is a pure function of the config.
// ---------------------------------------------------------------------

TEST(CrowdSampler, BytesInvariantAcrossJobsAndBatch)
{
    CrowdStudyConfig cfg = quickStudy(256, 9, 8, 4);
    cfg.jobs = 1;
    cfg.batch = 0;
    std::string reference = crowdStudyJson(runCrowdStudy(cfg));

    cfg.jobs = 4;
    cfg.batch = 1;
    EXPECT_EQ(crowdStudyJson(runCrowdStudy(cfg)), reference);

    cfg.jobs = 3;
    cfg.batch = 16;
    EXPECT_EQ(crowdStudyJson(runCrowdStudy(cfg)), reference);
}

TEST(LowerBound, BytesInvariantAcrossJobsAndBatch)
{
    LowerBoundConfig cfg;
    cfg.socName = "SD-821";
    cfg.sampleSizes = {2, 4};
    cfg.replicates = 3;
    cfg.seed = 5;
    shorten(cfg.accubench);

    cfg.jobs = 1;
    cfg.batch = 0;
    auto reference = sampleSizeStudy(cfg);

    for (auto [jobs, batch] : {std::pair<int, int>{4, 1},
                               std::pair<int, int>{2, 16}}) {
        cfg.jobs = jobs;
        cfg.batch = batch;
        auto got = sampleSizeStudy(cfg);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].sampleSize, reference[i].sampleSize);
            EXPECT_DOUBLE_EQ(got[i].meanSpreadPercent,
                             reference[i].meanSpreadPercent);
            EXPECT_DOUBLE_EQ(got[i].minSpreadPercent,
                             reference[i].minSpreadPercent);
            EXPECT_DOUBLE_EQ(got[i].maxSpreadPercent,
                             reference[i].maxSpreadPercent);
        }
    }
}

// ---------------------------------------------------------------------
// Live-point checkpoints.
// ---------------------------------------------------------------------

/** In-memory cache with counters and a corruptible value map. */
class TestLivePointCache : public LivePointCache
{
  public:
    bool
    fetch(const std::string &key_text, std::string &out) override
    {
        ++fetches;
        auto it = map.find(key_text);
        if (it == map.end())
            return false;
        ++hits;
        out = it->second;
        return true;
    }

    void
    store(const std::string &key_text, const std::string &value) override
    {
        ++stores;
        map[key_text] = value;
    }

    std::map<std::string, std::string> map;
    std::uint64_t fetches = 0;
    std::uint64_t hits = 0;
    std::uint64_t stores = 0;
};

TEST(LivePoints, WarmRerunIsByteIdenticalAndActuallyRestores)
{
    CrowdStudyConfig cfg = quickStudy(256, 4, 8, 4);
    TestLivePointCache cache;
    cfg.livePoints = &cache;

    std::string cold = crowdStudyJson(runCrowdStudy(cfg));
    // Cold run: every sampled die misses and captures one checkpoint.
    EXPECT_EQ(cache.stores, 32u);
    EXPECT_EQ(cache.hits, 0u);
    EXPECT_EQ(cache.map.size(), 32u);

    std::string warm = crowdStudyJson(runCrowdStudy(cfg));
    // The whole contract in two lines: same bytes, and the restore
    // path provably engaged (a failed restore would fall back to the
    // cold prefix and re-capture, bumping the store counter).
    EXPECT_EQ(warm, cold);
    EXPECT_EQ(cache.hits, 32u);
    EXPECT_EQ(cache.stores, 32u);
}

TEST(LivePoints, SharedMemoryCacheAcrossParallelCohorts)
{
    // Four workers run narrow cohorts side by side, so fetches and
    // stores from different dies hit the one shared cache at once.
    CrowdStudyConfig cfg = quickStudy(1024, 12, 16, 4);
    cfg.jobs = 4;
    cfg.batch = 4;
    std::string uncached = crowdStudyJson(runCrowdStudy(cfg));

    MemoryLivePointCache cache;
    cfg.livePoints = &cache;
    std::string cold = crowdStudyJson(runCrowdStudy(cfg));
    EXPECT_EQ(cache.size(), 64u);
    std::string warm = crowdStudyJson(runCrowdStudy(cfg));
    EXPECT_EQ(cache.size(), 64u);
    EXPECT_EQ(cold, uncached);
    EXPECT_EQ(warm, cold);
}

TEST(LivePoints, CorruptCheckpointsDegradeToColdStart)
{
    CrowdStudyConfig cfg = quickStudy(128, 6, 4, 3);
    TestLivePointCache cache;
    cfg.livePoints = &cache;

    std::string cold = crowdStudyJson(runCrowdStudy(cfg));
    ASSERT_EQ(cache.map.size(), 12u);

    // Sweep the corruption offset across reruns so every region of
    // the record format — version word, section framing, meta, box,
    // device, trace payloads — gets hit in some pass.
    for (int pass = 0; pass < 4; ++pass) {
        for (auto &[key, value] : cache.map) {
            ASSERT_FALSE(value.empty());
            std::size_t at =
                (value.size() * static_cast<std::size_t>(2 * pass + 1)) /
                9 % value.size();
            value[at] = static_cast<char>(value[at] ^ 0x5a);
        }
        std::uint64_t stores_before = cache.stores;
        std::string warm = crowdStudyJson(runCrowdStudy(cfg));
        // Same bytes as the cold study — corruption may cost the
        // shortcut, never correctness...
        EXPECT_EQ(warm, cold) << "pass " << pass;
        // ...and every die whose decode failed re-captured a fresh
        // checkpoint, leaving the cache clean for the next pass.
        EXPECT_EQ(cache.stores, stores_before + 12u) << "pass " << pass;
    }

    // Truncated values (torn write survived a dumb cache) degrade the
    // same way.
    for (auto &[key, value] : cache.map)
        value.resize(value.size() / 2);
    std::string warm = crowdStudyJson(runCrowdStudy(cfg));
    EXPECT_EQ(warm, cold);

    // And a final intact rerun really is warm again.
    std::uint64_t stores_before = cache.stores;
    EXPECT_EQ(crowdStudyJson(runCrowdStudy(cfg)), cold);
    EXPECT_EQ(cache.stores, stores_before);
}

} // namespace
} // namespace pvar
