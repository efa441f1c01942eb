/**
 * @file
 * Tests for the deterministic fault-injection framework (src/fault):
 * site/kind naming, rule triggers (counts, every/after, probability),
 * per-scope counting, schedule independence, plan installation, and
 * the JSON round-trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hh"
#include "report/fault_json.hh"

using namespace pvar;

namespace
{

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

/** The per-scope firing pattern of `site` over `n` invocations. */
std::vector<bool>
firingPattern(std::uint64_t scope_id, FaultSite site, int n)
{
    FaultFrame frame(scope_id);
    FaultFrameGuard guard(&frame);
    std::vector<bool> fired;
    fired.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        fired.push_back(faultCheck(site).fired);
    return fired;
}

} // namespace

TEST(FaultNames, SiteNamesRoundTrip)
{
    const FaultSite sites[] = {
        FaultSite::StoreAppend,    FaultSite::StoreFsync,
        FaultSite::SensorRead,     FaultSite::ThermaboxRegulate,
        FaultSite::ExperimentRun,  FaultSite::HttpAccept,
        FaultSite::NetAccept,      FaultSite::NetRead,
        FaultSite::NetWrite,       FaultSite::StoreWrite,
    };
    std::set<std::string> names;
    for (FaultSite s : sites) {
        std::string name = faultSiteName(s);
        names.insert(name);
        FaultSite parsed = FaultSite::StoreAppend;
        ASSERT_TRUE(faultSiteFromName(name, parsed)) << name;
        EXPECT_EQ(parsed, s);
    }
    EXPECT_EQ(names.size(), kFaultSiteCount) << "names must be unique";
    FaultSite out;
    EXPECT_FALSE(faultSiteFromName("no.such.site", out));
}

TEST(FaultNames, KindNamesRoundTrip)
{
    const FaultKind kinds[] = {FaultKind::Io, FaultKind::Transient,
                               FaultKind::Permanent, FaultKind::Stuck};
    for (FaultKind k : kinds) {
        FaultKind parsed = FaultKind::Io;
        ASSERT_TRUE(faultKindFromName(faultKindName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    FaultKind out;
    EXPECT_FALSE(faultKindFromName("gremlin", out));
}

TEST(FaultNames, SysFaultModeNamesRoundTrip)
{
    const SysFaultMode modes[] = {
        SysFaultMode::Eintr,       SysFaultMode::Eagain,
        SysFaultMode::Emfile,      SysFaultMode::ConnAborted,
        SysFaultMode::ConnReset,   SysFaultMode::Pipe,
        SysFaultMode::NoSpace,     SysFaultMode::Short,
    };
    std::set<std::string> names;
    for (SysFaultMode m : modes) {
        std::string name = sysFaultModeName(m);
        EXPECT_FALSE(name.empty());
        names.insert(name);
        SysFaultMode parsed = SysFaultMode::Default;
        ASSERT_TRUE(sysFaultModeFromName(name, parsed)) << name;
        EXPECT_EQ(parsed, m);
    }
    EXPECT_EQ(names.size(), 8u) << "mode names must be unique";
    // Default is the empty name (elided from JSON).
    EXPECT_STREQ(sysFaultModeName(SysFaultMode::Default), "");
    SysFaultMode out;
    EXPECT_TRUE(sysFaultModeFromName("", out));
    EXPECT_EQ(out, SysFaultMode::Default);
    EXPECT_FALSE(sysFaultModeFromName("esplode", out));
}

TEST(FaultCheck, NoPlanNeverFires)
{
    clearFaultPlan();
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(faultCheck(FaultSite::StoreAppend).fired);
    EXPECT_EQ(currentFaultPlan(), nullptr);
}

TEST(FaultCheck, CountsRuleFiresExactlyAtListedCounts)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::SensorRead;
    rule.counts = {0, 3, 4};
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    std::vector<bool> fired =
        firingPattern(7, FaultSite::SensorRead, 6);
    EXPECT_EQ(fired, (std::vector<bool>{true, false, false, true,
                                        true, false}));
    // Other sites are untouched.
    EXPECT_FALSE(faultCheck(FaultSite::StoreAppend).fired);
}

TEST(FaultCheck, EveryAfterRuleIsModular)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::StoreAppend;
    rule.after = 2;
    rule.every = 3;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    // Fires at counts 2, 5, 8, ...
    std::vector<bool> fired =
        firingPattern(9, FaultSite::StoreAppend, 9);
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false,
                                        false, true, false, false,
                                        true}));
}

TEST(FaultCheck, TimesCapsFiresPerScope)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::StoreAppend;
    rule.every = 1; // always
    rule.times = 2;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    EXPECT_EQ(firingPattern(1, FaultSite::StoreAppend, 5),
              (std::vector<bool>{true, true, false, false, false}));
    // A fresh scope gets a fresh budget.
    EXPECT_EQ(firingPattern(2, FaultSite::StoreAppend, 3),
              (std::vector<bool>{true, true, false}));
}

TEST(FaultCheck, ProbabilityIsDeterministicPerSeedScopeCount)
{
    FaultPlan plan(42);
    FaultRule rule;
    rule.site = FaultSite::ExperimentRun;
    rule.kind = FaultKind::Transient;
    rule.probability = 0.5;
    plan.addRule(rule);

    std::vector<bool> first, second;
    {
        PlanGuard guard{FaultPlan(plan)};
        first = firingPattern(99, FaultSite::ExperimentRun, 1000);
    }
    {
        PlanGuard guard{FaultPlan(plan)};
        second = firingPattern(99, FaultSite::ExperimentRun, 1000);
    }
    EXPECT_EQ(first, second) << "same seed+scope+count must agree";

    int fires = 0;
    for (bool b : first)
        fires += b ? 1 : 0;
    EXPECT_GT(fires, 350) << "p=0.5 should fire roughly half the time";
    EXPECT_LT(fires, 650);

    // A different scope sees a different (but still deterministic)
    // sequence.
    PlanGuard guard{FaultPlan(plan)};
    EXPECT_NE(firingPattern(100, FaultSite::ExperimentRun, 1000),
              first);
}

TEST(FaultCheck, StackedProbabilityRulesDrawIndependently)
{
    // Two probability rules on one site: each must draw its own
    // uniform. With a shared draw the first (larger) rule would
    // shadow the second completely — every value below 0.1 is also
    // below 0.5, and the first matching rule wins.
    FaultPlan plan(5);
    FaultRule big;
    big.site = FaultSite::NetRead;
    big.mode = SysFaultMode::Short;
    big.probability = 0.5;
    plan.addRule(big);
    FaultRule small;
    small.site = FaultSite::NetRead;
    small.mode = SysFaultMode::ConnReset;
    small.probability = 0.1;
    plan.addRule(small);
    PlanGuard guard(std::move(plan));

    int shorts = 0, resets = 0;
    FaultFrame frame(17);
    FaultFrameGuard active(&frame);
    for (int i = 0; i < 2000; ++i) {
        FaultHit hit = faultCheck(FaultSite::NetRead);
        if (!hit.fired)
            continue;
        if (hit.mode == SysFaultMode::Short)
            ++shorts;
        else if (hit.mode == SysFaultMode::ConnReset)
            ++resets;
    }
    EXPECT_GT(shorts, 700);
    EXPECT_GT(resets, 30) << "the smaller rule must not be shadowed";
}

TEST(FaultCheck, ReplaySequenceIsPinned)
{
    // The exact firing sequence for (seed, site, rule, scope, count)
    // is part of the replay contract: serialized chaos plans promise
    // bit-identical reruns, so a change that shifts this pattern is a
    // compatibility break, not a refactor.
    FaultPlan plan(2026);
    FaultRule rule;
    rule.site = FaultSite::NetRead;
    rule.mode = SysFaultMode::ConnReset;
    rule.probability = 0.25;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    EXPECT_EQ(
        firingPattern(3, FaultSite::NetRead, 32),
        (std::vector<bool>{
            true,  false, true,  false, false, false, false, true,
            true,  true,  false, false, false, false, false, false,
            false, false, false, false, false, false, true,  true,
            false, false, false, true,  false, true,  false, false}));
}

TEST(FaultCheck, UnscopedFiringCountsAreScheduleIndependent)
{
    // The syscall sites (net.*, store.write) count on global atomics
    // with no scope. Each decision is a pure function of the per-site
    // invocation count, so the *number* of fires over N calls is the
    // same no matter how many threads interleave — the property that
    // makes a chaos soak replayable at any --jobs.
    FaultPlan plan(11);
    FaultRule rule;
    rule.site = FaultSite::NetWrite;
    rule.probability = 0.3;
    plan.addRule(rule);

    int single = 0;
    {
        PlanGuard guard{FaultPlan(plan)};
        for (int i = 0; i < 400; ++i)
            single += faultCheck(FaultSite::NetWrite).fired ? 1 : 0;
    }

    PlanGuard guard{FaultPlan(plan)};
    std::atomic<int> threaded{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&threaded] {
            int mine = 0;
            for (int i = 0; i < 100; ++i)
                mine +=
                    faultCheck(FaultSite::NetWrite).fired ? 1 : 0;
            threaded.fetch_add(mine);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(threaded.load(), single);
}

TEST(FaultCheck, ScopedDecisionsAreThreadIndependent)
{
    FaultPlan plan(7);
    FaultRule rule;
    rule.site = FaultSite::SensorRead;
    rule.probability = 0.3;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    std::vector<bool> inline_pattern =
        firingPattern(1234, FaultSite::SensorRead, 200);

    // The same scope re-run concurrently on other threads (each
    // thread has its own frame) sees the identical pattern.
    std::vector<std::vector<bool>> results(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&results, t] {
            results[static_cast<std::size_t>(t)] =
                firingPattern(1234, FaultSite::SensorRead, 200);
        });
    }
    for (auto &t : threads)
        t.join();
    for (const auto &r : results)
        EXPECT_EQ(r, inline_pattern);
}

TEST(FaultCheck, NestedScopesInnermostWins)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::SensorRead;
    rule.counts = {0};
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    FaultFrame outer(50);
    FaultFrameGuard outer_guard(&outer);
    EXPECT_TRUE(faultCheck(FaultSite::SensorRead).fired);  // count 0
    EXPECT_FALSE(faultCheck(FaultSite::SensorRead).fired); // count 1
    {
        FaultFrame inner(51);
        FaultFrameGuard inner_guard(&inner);
        // The inner scope counts from zero again.
        EXPECT_TRUE(faultCheck(FaultSite::SensorRead).fired);
    }
    // Back in the outer scope: its count continues at 2.
    EXPECT_FALSE(faultCheck(FaultSite::SensorRead).fired);
}

TEST(FaultCheck, FrameCountsAccrueAcrossActivations)
{
    // The batch engine activates a die's frame once per slice of its
    // work; the decisions must be those of one uninterrupted run.
    FaultPlan plan(9);
    FaultRule rule;
    rule.site = FaultSite::SensorRead;
    rule.probability = 0.3;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    std::vector<bool> whole = firingPattern(77, FaultSite::SensorRead, 40);
    FaultFrame frame(77);
    std::vector<bool> sliced;
    for (int slice = 0; slice < 8; ++slice) {
        FaultFrameGuard active(&frame);
        for (int i = 0; i < 5; ++i)
            sliced.push_back(faultCheck(FaultSite::SensorRead).fired);
    }
    EXPECT_EQ(sliced, whole);
}

TEST(FaultCheck, InstallResetsGlobalCounters)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::HttpAccept;
    rule.counts = {0};
    plan.addRule(rule);

    {
        PlanGuard guard{FaultPlan(plan)};
        // Unscoped: global counter. Fires once, at global count 0.
        EXPECT_TRUE(faultCheck(FaultSite::HttpAccept).fired);
        EXPECT_FALSE(faultCheck(FaultSite::HttpAccept).fired);
    }
    // Reinstalling resets the counter: count 0 fires again.
    PlanGuard guard{FaultPlan(plan)};
    EXPECT_TRUE(faultCheck(FaultSite::HttpAccept).fired);
}

TEST(FaultCheck, HitCarriesKindAndValue)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::SensorRead;
    rule.kind = FaultKind::Stuck;
    rule.value = 2.5;
    rule.every = 1;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    FaultFrame frame(1);
    FaultFrameGuard active(&frame);
    FaultHit hit = faultCheck(FaultSite::SensorRead);
    ASSERT_TRUE(hit.fired);
    EXPECT_EQ(hit.kind, FaultKind::Stuck);
    EXPECT_DOUBLE_EQ(hit.value, 2.5);
}

TEST(FaultScopeId, MixesBothInputs)
{
    EXPECT_NE(faultScopeId(0, 0), faultScopeId(0, 1));
    EXPECT_NE(faultScopeId(0, 1), faultScopeId(1, 0));
    EXPECT_EQ(faultScopeId(3, 4), faultScopeId(3, 4));
}

TEST(FaultJson, PlanRoundTripsAndReproducesDecisions)
{
    FaultPlan plan(0xc0ffee);
    FaultRule a;
    a.site = FaultSite::ExperimentRun;
    a.kind = FaultKind::Transient;
    a.probability = 0.35;
    plan.addRule(a);
    FaultRule b;
    b.site = FaultSite::StoreAppend;
    b.kind = FaultKind::Io;
    b.counts = {1, 4};
    b.times = 1;
    plan.addRule(b);
    FaultRule c;
    c.site = FaultSite::SensorRead;
    c.kind = FaultKind::Stuck;
    c.value = -1.25;
    c.after = 2;
    c.every = 5;
    plan.addRule(c);

    std::string json = toJson(plan);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, error)) << error;
    FaultPlan reloaded = faultPlanFromJson(doc);

    EXPECT_EQ(reloaded.seed(), plan.seed());
    ASSERT_EQ(reloaded.rules().size(), plan.rules().size());
    // Serializing again must be byte-stable (exact doubles).
    EXPECT_EQ(toJson(reloaded), json);

    // And the reloaded plan makes the identical decisions.
    for (FaultSite site :
         {FaultSite::ExperimentRun, FaultSite::StoreAppend,
          FaultSite::SensorRead}) {
        std::vector<bool> original, replayed;
        {
            PlanGuard guard{FaultPlan(plan)};
            original = firingPattern(11, site, 64);
        }
        {
            PlanGuard guard{FaultPlan(reloaded)};
            replayed = firingPattern(11, site, 64);
        }
        EXPECT_EQ(original, replayed) << faultSiteName(site);
    }
}

TEST(FaultJson, SysFaultModeRoundTripsByteStable)
{
    FaultPlan plan(9);
    FaultRule a;
    a.site = FaultSite::NetWrite;
    a.mode = SysFaultMode::Short;
    a.probability = 0.25;
    a.value = 0.5;
    plan.addRule(a);
    FaultRule b;
    b.site = FaultSite::StoreWrite;
    b.mode = SysFaultMode::NoSpace;
    b.after = 3;
    b.every = 7;
    b.times = 2;
    plan.addRule(b);
    FaultRule c; // Default mode: the key is elided entirely
    c.site = FaultSite::NetAccept;
    c.every = 5;
    plan.addRule(c);

    std::string json = toJson(plan);
    EXPECT_NE(json.find("\"mode\":\"short\""), std::string::npos);
    EXPECT_NE(json.find("\"mode\":\"enospc\""), std::string::npos);
    // Exactly the two non-default modes appear.
    EXPECT_EQ(json.find("\"mode\":\"\""), std::string::npos);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, error)) << error;
    FaultPlan reloaded = faultPlanFromJson(doc);
    ASSERT_EQ(reloaded.rules().size(), 3u);
    EXPECT_EQ(reloaded.rules()[0].mode, SysFaultMode::Short);
    EXPECT_EQ(reloaded.rules()[1].mode, SysFaultMode::NoSpace);
    EXPECT_EQ(reloaded.rules()[2].mode, SysFaultMode::Default);
    EXPECT_EQ(toJson(reloaded), json);

    // Unknown modes are schema violations, not silent defaults.
    std::string bad = "{\"rules\": [{\"site\": \"net.read\", "
                      "\"mode\": \"esplode\"}]}";
    ASSERT_TRUE(parseJson(bad, doc, error)) << error;
    EXPECT_THROW(faultPlanFromJson(doc), JsonError);
}

TEST(FaultJson, RejectsBadDocuments)
{
    auto parse = [](const std::string &text) {
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(text, doc, error)) << error;
        return faultPlanFromJson(doc);
    };
    EXPECT_THROW(parse("{\"seed\": 1, \"rules\": [{}]}"), JsonError);
    EXPECT_THROW(
        parse("{\"rules\": [{\"site\": \"no.such.site\"}]}"),
        JsonError);
    EXPECT_THROW(
        parse("{\"rules\": [{\"site\": \"sensor.read\", "
              "\"kind\": \"gremlin\"}]}"),
        JsonError);
    EXPECT_THROW(
        parse("{\"rules\": [{\"site\": \"sensor.read\", "
              "\"probability\": 1.5}]}"),
        JsonError);
    // Integers out of range are rejected before any conversion.
    EXPECT_THROW(
        parse("{\"rules\": [{\"site\": \"sensor.read\", "
              "\"counts\": [-1]}]}"),
        JsonError);
    EXPECT_THROW(
        parse("{\"rules\": [{\"site\": \"sensor.read\", "
              "\"every\": 1e30}]}"),
        JsonError);
    // An empty plan is fine.
    FaultPlan empty = parse("{}");
    EXPECT_EQ(empty.rules().size(), 0u);
}
