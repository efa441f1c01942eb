/**
 * @file
 * Tests for the study service layer: the content-addressed
 * ResultCache, the StudyService request handling (transport-free via
 * handle(), and over real loopback sockets), backpressure, and the
 * determinism contract (byte-identical responses, cached or not, at
 * any jobs count). The socket tests also run under ThreadSanitizer
 * (scripts/check.sh builds this binary in the TSan tree).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accubench/protocol.hh"
#include "device/registry.hh"
#include "fault/fault.hh"
#include "report/json.hh"
#include "report/spec_json.hh"
#include "sampling/sampler.hh"
#include "store/result_cache.hh"
#include "service/service.hh"
#include "sim/logging.hh"

using namespace pvar;

namespace
{

/** A one-unit study body that runs in a few hundredths of a second. */
const char *kUnitBody =
    R"({"device": "SD-805:unit-b", "iterations": 1})";

/** Quiet logging for the duration of one test. */
class QuietLog
{
  public:
    QuietLog() : _prev(setLogLevel(LogLevel::Quiet)) {}
    ~QuietLog() { setLogLevel(_prev); }

  private:
    LogLevel _prev;
};

StudyConfig
fastStudyConfig()
{
    StudyConfig cfg;
    cfg.iterations = 1;
    return cfg;
}

/** The smallest interesting fleet: one built-in base, two units. */
std::vector<RegistryEntry>
tinyFleet()
{
    const RegistryEntry &base = DeviceRegistry::builtin().at("SD-805");
    RegistryEntry entry = base;
    entry.units = {base.units.at(0), base.units.at(1)};
    return {entry};
}

std::string
runTinyFleet(const StudyConfig &cfg)
{
    std::vector<RegistryEntry> fleet = tinyFleet();
    std::vector<const RegistryEntry *> entries;
    for (const RegistryEntry &e : fleet)
        entries.push_back(&e);
    return toJson(runStudy(entries, cfg));
}

std::string
writeTempFile(const std::string &name, const std::string &content)
{
    std::string path = testing::TempDir() + "/" + name;
    std::ofstream f(path);
    f << content;
    return path;
}

} // namespace

// ---------------------------------------------------------------------
// Content-addressed result cache.
// ---------------------------------------------------------------------

TEST(ResultCacheKey, DistinguishesEveryInput)
{
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;

    std::string base = experimentKeyText(entry, 0, cfg);
    EXPECT_NE(base, experimentKeyText(entry, 1, cfg));

    ExperimentConfig other = cfg;
    other.iterations = cfg.iterations + 1;
    EXPECT_NE(base, experimentKeyText(entry, 0, other));

    other = cfg;
    other.mode = cfg.mode == WorkloadMode::Unconstrained
                     ? WorkloadMode::FixedFrequency
                     : WorkloadMode::Unconstrained;
    EXPECT_NE(base, experimentKeyText(entry, 0, other));

    const RegistryEntry &sibling =
        DeviceRegistry::builtin().at("SD-810");
    EXPECT_NE(base, experimentKeyText(sibling, 0, cfg));

    // Same inputs, same bytes: the key is a pure function.
    EXPECT_EQ(base, experimentKeyText(entry, 0, cfg));
    EXPECT_EQ(contentDigest(base), contentDigest(base));
    EXPECT_NE(contentDigest(base), contentDigest(base + " "));
    EXPECT_EQ(contentDigest(base).size(), 32u);
}

TEST(ResultCacheKey, BuiltinEntriesMatchAnUnmemoizedCopy)
{
    // Builtin entries serialize their spec once per process; a copy
    // of the entry is not builtin and serializes its own. Both must
    // yield the same key bytes for every experiment a study can run.
    for (const RegistryEntry &entry : DeviceRegistry::builtin().entries()) {
        const RegistryEntry copy = entry;
        for (std::size_t u = 0; u < entry.units.size(); ++u) {
            for (WorkloadMode mode : {WorkloadMode::Unconstrained,
                                      WorkloadMode::FixedFrequency}) {
                for (SolverKind solver :
                     {SolverKind::Stepped, SolverKind::Fast}) {
                    ExperimentConfig cfg;
                    cfg.mode = mode;
                    cfg.solver = solver;
                    EXPECT_EQ(experimentKeyText(entry, u, cfg),
                              experimentKeyText(copy, u, cfg))
                        << entry.spec.socName << " unit " << u;
                    EXPECT_EQ(livePointKeyText(entry, u, cfg),
                              livePointKeyText(copy, u, cfg));
                }
            }
        }
    }
}

TEST(ResultCacheKey, FleetRoundTripOfABuiltinEntryKeepsTheKey)
{
    // A fleet document naming a builtin model must hit what a
    // {"device": ...} request cached, and vice versa.
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(fleetToJson({entry}), doc, error)) << error;
    std::vector<RegistryEntry> fleet = fleetFromJson(doc);
    ASSERT_EQ(fleet.size(), 1u);
    ASSERT_EQ(fleet[0].units.size(), entry.units.size());
    ExperimentConfig cfg;
    for (std::size_t u = 0; u < entry.units.size(); ++u)
        EXPECT_EQ(experimentKeyText(fleet[0], u, cfg),
                  experimentKeyText(entry, u, cfg));
}

TEST(ResultCacheTest, HitsReturnTheStoredResult)
{
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;
    ResultCache cache(8);

    int computes = 0;
    auto compute = [&]() {
        ++computes;
        ExperimentResult r;
        r.unitId = "probe";
        return r;
    };

    ExperimentResult cold = cache.getOrCompute(entry, 0, cfg, compute);
    ExperimentResult warm = cache.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cold.unitId, "probe");
    EXPECT_EQ(warm.unitId, "probe");

    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);

    // A different unit is a different key.
    cache.getOrCompute(entry, 1, cfg, compute);
    EXPECT_EQ(computes, 2);
}

TEST(ResultCacheTest, LruBoundsTheFootprint)
{
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-800");
    ExperimentConfig cfg;
    ResultCache cache(2);
    auto compute = []() { return ExperimentResult{}; };

    ASSERT_GE(entry.units.size(), 3u);
    cache.getOrCompute(entry, 0, cfg, compute);
    cache.getOrCompute(entry, 1, cfg, compute);
    // Touch 0 so 1 is the LRU victim when 2 is inserted.
    cache.getOrCompute(entry, 0, cfg, compute);
    cache.getOrCompute(entry, 2, cfg, compute);

    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.capacity, 2u);

    // 0 survived, 1 was evicted.
    std::uint64_t misses = s.misses;
    cache.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(cache.stats().misses, misses);
    cache.getOrCompute(entry, 1, cfg, compute);
    EXPECT_EQ(cache.stats().misses, misses + 1);
}

namespace
{

/** A result whose trace holds @p n samples of one channel. */
ExperimentResult
tracedResult(const std::string &unit_id, int n)
{
    ExperimentResult r;
    r.unitId = unit_id;
    auto trace = std::make_shared<Trace>();
    for (int i = 0; i < n; ++i)
        trace->record("die_temp", Time::msec(10 * i), 30.0 + 0.25 * i);
    r.trace = std::move(trace);
    return r;
}

} // namespace

TEST(ResultCacheTest, HitsShareTheCachedTrace)
{
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;
    ResultCache cache(8);
    cache.insert(entry, 0, cfg, tracedResult("probe", 64));

    ExperimentResult first, second;
    ASSERT_TRUE(cache.lookup(entry, 0, cfg, first));
    ASSERT_TRUE(cache.lookup(entry, 0, cfg, second));
    EXPECT_EQ(first.trace.get(), second.trace.get());
    EXPECT_EQ(first.trace->channel("die_temp").size(), 64u);

    // The supervisor stamps its own copy; the entry keeps its fields.
    first.status = ExperimentStatus::InvalidRun;
    first.attempts = 3;
    first.quarantined = true;
    ExperimentResult third;
    ASSERT_TRUE(cache.lookup(entry, 0, cfg, third));
    EXPECT_EQ(third.status, ExperimentStatus::Ok);
    EXPECT_EQ(third.attempts, 1u);
    EXPECT_FALSE(third.quarantined);
    EXPECT_EQ(third.trace.get(), first.trace.get());
}

TEST(ResultCacheTest, EvictedEntryLeavesAHeldTraceReadable)
{
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-800");
    ExperimentConfig cfg;
    ResultCache cache(1);
    cache.insert(entry, 0, cfg, tracedResult("a", 4096));

    ExperimentResult held;
    ASSERT_TRUE(cache.lookup(entry, 0, cfg, held));
    cache.insert(entry, 1, cfg, tracedResult("b", 8));
    EXPECT_EQ(cache.stats().evictions, 1u);
    ExperimentResult gone;
    EXPECT_FALSE(cache.lookup(entry, 0, cfg, gone));

    const std::vector<Sample> &samples =
        held.trace->channel("die_temp").samples();
    ASSERT_EQ(samples.size(), 4096u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(samples[i].when, Time::msec(10 * static_cast<int>(i)));
        EXPECT_EQ(samples[i].value, 30.0 + 0.25 * static_cast<int>(i));
    }
}

TEST(ResultCacheTest, ColdAndWarmStudiesAreByteIdentical)
{
    QuietLog quiet;
    ResultCache cache(64);

    StudyConfig cfg = fastStudyConfig();
    cfg.cache = &cache;
    std::string cold = runTinyFleet(cfg);
    ResultCacheStats after_cold = cache.stats();
    EXPECT_EQ(after_cold.hits, 0u);
    EXPECT_EQ(after_cold.misses, 4u); // 2 units x 2 modes

    std::string warm = runTinyFleet(cfg);
    ResultCacheStats after_warm = cache.stats();
    EXPECT_EQ(after_warm.hits, 4u);
    EXPECT_EQ(after_warm.misses, 4u);
    EXPECT_EQ(cold, warm);

    // An uncached run and any jobs count produce the same bytes.
    StudyConfig plain = fastStudyConfig();
    EXPECT_EQ(runTinyFleet(plain), cold);
    plain.jobs = 4;
    EXPECT_EQ(runTinyFleet(plain), cold);
    cfg.jobs = 4;
    EXPECT_EQ(runTinyFleet(cfg), cold);
}

// ---------------------------------------------------------------------
// Transport-free request handling.
// ---------------------------------------------------------------------

namespace
{

ServiceConfig
testServiceConfig()
{
    ServiceConfig cfg;
    cfg.port = 0;
    cfg.study.iterations = 1;
    return cfg;
}

HttpRequest
makeRequest(const std::string &method, const std::string &path,
            const std::string &body = "")
{
    HttpRequest req;
    req.method = method;
    req.path = path;
    req.version = "HTTP/1.1";
    req.body = body;
    return req;
}

} // namespace

TEST(StudyServiceHandle, RoutesAndRejects)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());

    EXPECT_EQ(svc.handle(makeRequest("GET", "/nope")).status, 404);
    EXPECT_EQ(svc.handle(makeRequest("POST", "/devices")).status, 405);
    EXPECT_EQ(svc.handle(makeRequest("GET", "/study")).status, 405);
    EXPECT_EQ(svc.handle(makeRequest("GET", "/healthz")).status, 200);
}

TEST(StudyServiceHandle, DevicesListsTheBuiltinRegistry)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());
    HttpResponse resp = svc.handle(makeRequest("GET", "/devices"));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body,
              fleetToJson(DeviceRegistry::builtin().entries()) + "\n");
}

TEST(StudyServiceHandle, DevicesBodyIsTheSameOnEveryRequest)
{
    // The body is built once, by the first request; a repeat must
    // answer the same bytes and stay uncacheable.
    QuietLog quiet;
    StudyService svc(testServiceConfig());
    const std::string expected =
        fleetToJson(DeviceRegistry::builtin().entries()) + "\n";
    for (int i = 0; i < 2; ++i) {
        HttpResponse resp = svc.handle(makeRequest("GET", "/devices"));
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, expected) << "request " << i;
        ASSERT_EQ(resp.headers.size(), 1u);
        EXPECT_EQ(resp.headers[0].first, "Cache-Control");
        EXPECT_EQ(resp.headers[0].second, "no-store");
    }
}

TEST(StudyServiceHandle, MalformedStudyBodiesAre400s)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());
    auto post = [&](const std::string &body) {
        return svc.handle(makeRequest("POST", "/study", body));
    };

    // Truncated JSON: the 400 carries the parse position.
    HttpResponse resp = post(R"({"fleet": [)");
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("line 1"), std::string::npos) << resp.body;

    // Wrong types.
    EXPECT_EQ(post(R"({"fleet": 42})").status, 400);
    EXPECT_EQ(post(R"([{"base": 17}])").status, 400);
    EXPECT_EQ(post(R"({"device": 3})").status, 400);
    EXPECT_EQ(post(R"({"soc": "SD-805", "iterations": 1.5})").status,
              400);
    EXPECT_EQ(post(R"({"soc": "SD-805", "iterations": 0})").status,
              400);
    EXPECT_EQ(post(R"({"soc": "SD-805", "ambient": "warm"})").status,
              400);
    // Beyond int: range-checked before any conversion.
    EXPECT_EQ(
        post(R"({"device": "SD-805:unit-b", "iterations": 1e10})").status,
        400);

    // Missing keys and unknown names.
    EXPECT_EQ(post(R"({"fleet": [ {} ]})").status, 400);
    EXPECT_EQ(post(R"({"fleet": [ {"spec": {}} ]})").status, 400);
    EXPECT_EQ(post(R"({"fleet": [ {"base": "SD-9999",
        "units": [{"id": "u0"}]} ]})").status, 400);
    EXPECT_EQ(post(R"({"soc": "SD-9999"})").status, 400);
    EXPECT_EQ(post(R"({"device": "nope-0"})").status, 400);
    EXPECT_EQ(post(R"({"soc": "SD-805", "device": "dev-363"})").status,
              400);

    // The error body is itself valid JSON with an "error" member.
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(resp.body, doc, error)) << resp.body;
    EXPECT_TRUE(doc.at("error").isString());

    // Bad requests are counted, none of them were served studies.
    EXPECT_GE(svc.stats().badRequests, 1u);
}

TEST(StudyServiceHandle, StudyMatchesTheCliBytes)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());
    HttpResponse resp =
        svc.handle(makeRequest("POST", "/study", kUnitBody));
    ASSERT_EQ(resp.status, 200) << resp.body;

    // The same study through the library: pvar_study --device
    // SD-805:unit-b --iterations 1 --json emits these bytes.
    StudyConfig cfg = fastStudyConfig();
    UnitRef ref = DeviceRegistry::builtin().findUnit("SD-805:unit-b");
    ASSERT_NE(ref.entry, nullptr);
    std::vector<SocStudy> studies{
        runUnitStudy(*ref.entry, ref.unitIndex, cfg)};
    EXPECT_EQ(resp.body, toJson(studies) + "\n");

    // Identical body again: served from the cache, identical bytes.
    HttpResponse again =
        svc.handle(makeRequest("POST", "/study", kUnitBody));
    EXPECT_EQ(again.body, resp.body);
    ResultCacheStats cs = svc.cacheStats();
    EXPECT_EQ(cs.misses, 2u); // 1 unit x 2 modes
    EXPECT_EQ(cs.hits, 2u);
}

TEST(StudyServiceHandle, CrowdMatchesTheCliBytesAndRejects)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());

    // Method and body validation first.
    EXPECT_EQ(svc.handle(makeRequest("GET", "/crowd")).status, 405);
    EXPECT_EQ(svc.handle(makeRequest("POST", "/crowd", "{}")).status,
              400);
    EXPECT_EQ(svc.handle(makeRequest("POST", "/crowd",
                                     R"({"dies": 0})"))
                  .status,
              400);
    EXPECT_EQ(svc.handle(makeRequest("POST", "/crowd",
                                     R"({"dies": 64, "ci_target": -1})"))
                  .status,
              400);
    EXPECT_EQ(svc.handle(makeRequest("POST", "/crowd",
                                     R"({"dies": 64, "soc": "SD-9999"})"))
                  .status,
              400);
    EXPECT_EQ(svc.handle(makeRequest("POST", "/crowd",
                                     R"({"dies": -1e300})"))
                  .status,
              400);
    EXPECT_EQ(svc.handle(makeRequest("POST", "/crowd",
                                     R"({"dies": 64, "strata": 1.5})"))
                  .status,
              400);

    HttpResponse resp = svc.handle(
        makeRequest("POST", "/crowd", R"({"dies": 64, "strata": 4})"));
    ASSERT_EQ(resp.status, 200) << resp.body;

    // The same study through the library: the response is exactly the
    // bytes `pvar_study --crowd 64 --strata 4` prints.
    CrowdStudyConfig cfg;
    cfg.population.size = 64;
    cfg.strata = 4;
    CrowdStudyResult r = runCrowdStudy(cfg);
    EXPECT_EQ(resp.body, crowdStudyJson(r) + "\n");
}

// ---------------------------------------------------------------------
// The real server, over loopback sockets.
// ---------------------------------------------------------------------

TEST(StudyServiceSocket, ServesAndDrains)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());
    svc.start();
    ASSERT_GT(svc.port(), 0);

    HttpResponse health =
        httpRequest("127.0.0.1", svc.port(), "GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(health.body, doc, error)) << health.body;
    EXPECT_EQ(doc.at("status").asString(), "ok");
    EXPECT_EQ(doc.at("queue").at("capacity").asNumber(), 8.0);

    HttpResponse devices =
        httpRequest("127.0.0.1", svc.port(), "GET", "/devices");
    EXPECT_EQ(devices.body,
              fleetToJson(DeviceRegistry::builtin().entries()) + "\n");

    HttpResponse bad = httpRequest("127.0.0.1", svc.port(), "POST",
                                   "/study", "{not json");
    EXPECT_EQ(bad.status, 400);

    svc.stop();
    svc.stop(); // idempotent
}

TEST(StudyServiceSocket, ConcurrentStudiesAreByteIdentical)
{
    QuietLog quiet;
    ServiceConfig cfg = testServiceConfig();
    cfg.workers = 4;
    StudyService svc(cfg);
    svc.start();

    // Hammer the same study from several clients at once; every
    // response must be 200 with exactly the same bytes.
    constexpr int clients = 6;
    std::vector<std::string> bodies(clients);
    std::vector<int> statuses(clients, 0);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            HttpResponse resp = httpRequest(
                "127.0.0.1", svc.port(), "POST", "/study", kUnitBody);
            statuses[c] = resp.status;
            bodies[c] = resp.body;
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int c = 0; c < clients; ++c) {
        EXPECT_EQ(statuses[c], 200) << bodies[c];
        EXPECT_EQ(bodies[c], bodies[0]);
    }

    // The cache deduplicated: 2 experiments computed at most once per
    // concurrently-racing client, and the counters add up.
    ResultCacheStats cs = svc.cacheStats();
    EXPECT_EQ(cs.hits + cs.misses,
              static_cast<std::uint64_t>(2 * clients));
    EXPECT_GE(cs.misses, 2u);
    EXPECT_EQ(svc.stats().served,
              static_cast<std::uint64_t>(clients));
    svc.stop();
}

TEST(StudyServiceSocket, BackpressureAnswers429)
{
    QuietLog quiet;
    ServiceConfig cfg = testServiceConfig();
    cfg.workers = 1;
    cfg.queueDepth = 1;
    cfg.retryAfterSec = 7;
    StudyService svc(cfg);
    svc.pauseWorkersForTest();
    svc.start();

    // With the single worker paused, one queued study fills the queue.
    std::thread queued([&]() {
        HttpResponse resp = httpRequest("127.0.0.1", svc.port(), "POST",
                                        "/study", kUnitBody);
        EXPECT_EQ(resp.status, 200);
    });
    while (svc.stats().queued < 1)
        std::this_thread::yield();

    HttpResponse overflow = httpRequest("127.0.0.1", svc.port(), "POST",
                                        "/study", kUnitBody);
    EXPECT_EQ(overflow.status, 429);
    EXPECT_EQ(overflow.header("retry-after"), "7");
    EXPECT_EQ(svc.stats().rejected, 1u);

    // Cheap endpoints still answer while the queue is full.
    EXPECT_EQ(
        httpRequest("127.0.0.1", svc.port(), "GET", "/healthz").status,
        200);

    svc.resumeWorkersForTest();
    queued.join();
    svc.stop();
}

// ---------------------------------------------------------------------
// Malformed fleet files through the CLI path (loadFleetFile fatals,
// naming the file and position).
// ---------------------------------------------------------------------

TEST(FleetFileErrors, TruncatedJsonDiesWithPosition)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string path = writeTempFile("pvar_truncated_fleet.json",
                                     "{\"fleet\": [\n  {\"base\":");
    EXPECT_EXIT(loadFleetFile(path), testing::ExitedWithCode(1),
                "pvar_truncated_fleet.json.*line 2");
}

TEST(FleetFileErrors, MissingKeysDieCleanly)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string path = writeTempFile("pvar_missing_keys_fleet.json",
                                     R"({"fleet": [ {} ]})");
    EXPECT_EXIT(loadFleetFile(path), testing::ExitedWithCode(1),
                "pvar_missing_keys_fleet.json");
}

TEST(FleetFileErrors, WrongTypesDieCleanly)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string path = writeTempFile("pvar_wrong_types_fleet.json",
                                     R"({"fleet": "not an array"})");
    EXPECT_EXIT(loadFleetFile(path), testing::ExitedWithCode(1),
                "pvar_wrong_types_fleet.json");
}

// ---------------------------------------------------------------------
// Durable store behind the service: warm restarts.
// ---------------------------------------------------------------------

namespace
{

/** True if @p resp carries the header @p name with value @p value. */
bool
hasHeader(const HttpResponse &resp, const std::string &name,
          const std::string &value)
{
    for (const auto &[k, v] : resp.headers)
        if (k == name && v == value)
            return true;
    return false;
}

} // namespace

TEST(StudyServiceDurable, WarmRestartServesIdenticalBytesFromTheStore)
{
    QuietLog quiet;
    std::string dir = testing::TempDir() + "/pvar_svc_store";
    std::remove((dir + "/experiments.log").c_str());

    std::string cold_body;
    {
        ServiceConfig cfg = testServiceConfig();
        cfg.cacheDir = dir;
        StudyService svc(cfg);
        HttpResponse cold =
            svc.handle(makeRequest("POST", "/study", kUnitBody));
        ASSERT_EQ(cold.status, 200) << cold.body;
        cold_body = cold.body;
        EXPECT_EQ(svc.storeStats().misses, 2u); // 1 unit x 2 modes
        EXPECT_EQ(svc.storeStats().records, 2u);
    }

    // A restarted service on the same directory answers from the
    // store: no recomputation, byte-identical response.
    ServiceConfig cfg = testServiceConfig();
    cfg.cacheDir = dir;
    StudyService svc(cfg);
    HttpResponse warm =
        svc.handle(makeRequest("POST", "/study", kUnitBody));
    ASSERT_EQ(warm.status, 200) << warm.body;
    EXPECT_EQ(warm.body, cold_body);
    EXPECT_EQ(svc.storeStats().hits, 2u);
    EXPECT_EQ(svc.storeStats().misses, 0u);

    // The bytes still match the CLI path exactly.
    StudyConfig study = fastStudyConfig();
    UnitRef ref = DeviceRegistry::builtin().findUnit("SD-805:unit-b");
    ASSERT_NE(ref.entry, nullptr);
    EXPECT_EQ(warm.body,
              toJson(std::vector<SocStudy>{
                  runUnitStudy(*ref.entry, ref.unitIndex, study)}) +
                  "\n");

    // /healthz reports the warm store.
    HttpResponse hz = svc.handle(makeRequest("GET", "/healthz"));
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(hz.body, doc, error)) << hz.body;
    EXPECT_EQ(doc.at("store").at("records").asNumber(), 2.0);
    EXPECT_EQ(doc.at("store").at("recovered_records").asNumber(), 2.0);
    EXPECT_EQ(doc.at("store").at("hits").asNumber(), 2.0);
    EXPECT_EQ(doc.at("store").at("truncated_bytes").asNumber(), 0.0);
}

TEST(StudyServiceHandle, MetadataEndpointsAreNoStore)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());

    // Both metadata endpoints change across restarts and store
    // mutations; intermediaries must not cache them.
    EXPECT_TRUE(hasHeader(svc.handle(makeRequest("GET", "/healthz")),
                          "Cache-Control", "no-store"));
    EXPECT_TRUE(hasHeader(svc.handle(makeRequest("GET", "/devices")),
                          "Cache-Control", "no-store"));

    // Without --cache-dir, /healthz reports a null store.
    HttpResponse hz = svc.handle(makeRequest("GET", "/healthz"));
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(hz.body, doc, error)) << hz.body;
    EXPECT_TRUE(doc.at("store").isNull());
}

// ---------------------------------------------------------------------
// Fault injection: load shedding and degraded health.
// ---------------------------------------------------------------------

namespace
{

/** Install a plan for one test; always uninstalls on scope exit. */
class SvcPlanGuard
{
  public:
    explicit SvcPlanGuard(FaultPlan plan)
    {
        installFaultPlan(
            std::make_shared<FaultPlan>(std::move(plan)));
    }
    ~SvcPlanGuard() { clearFaultPlan(); }
};

} // namespace

TEST(StudyServiceFaults, PermanentFaultShedsWith503AndRetryAfter)
{
    QuietLog quiet;
    ServiceConfig cfg = testServiceConfig();
    cfg.retryAfterSec = 7;
    StudyService svc(cfg);

    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::ExperimentRun;
    rule.kind = FaultKind::Permanent;
    rule.probability = 1.0;
    plan.addRule(rule);
    SvcPlanGuard guard{std::move(plan)};

    HttpResponse shed =
        svc.handle(makeRequest("POST", "/study", kUnitBody));
    EXPECT_EQ(shed.status, 503);
    EXPECT_TRUE(hasHeader(shed, "Retry-After", "7")) << shed.body;

    // Metadata endpoints keep answering while studies shed.
    EXPECT_EQ(svc.handle(makeRequest("GET", "/healthz")).status, 200);
}

TEST(StudyServiceFaults, HealthzReportsDegradedStore)
{
    QuietLog quiet;
    std::string dir = testing::TempDir() + "/pvar_svc_degraded";
    std::remove((dir + "/experiments.log").c_str());
    std::remove((dir + "/store.degraded").c_str());

    ServiceConfig cfg = testServiceConfig();
    cfg.cacheDir = dir;
    StudyService svc(cfg);

    // Healthy at startup.
    {
        HttpResponse hz = svc.handle(makeRequest("GET", "/healthz"));
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(hz.body, doc, error)) << hz.body;
        EXPECT_EQ(doc.at("status").asString(), "ok");
    }

    // A study under an injected append fault still answers 200 —
    // the result is computed, just not persisted — and /healthz
    // flips to degraded with the failure counters visible.
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::StoreAppend;
    rule.kind = FaultKind::Io;
    rule.every = 1;
    plan.addRule(rule);
    SvcPlanGuard guard{std::move(plan)};

    HttpResponse study =
        svc.handle(makeRequest("POST", "/study", kUnitBody));
    EXPECT_EQ(study.status, 200) << study.body;

    HttpResponse hz = svc.handle(makeRequest("GET", "/healthz"));
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(hz.body, doc, error)) << hz.body;
    EXPECT_EQ(doc.at("status").asString(), "degraded");
    EXPECT_TRUE(doc.at("store").at("degraded").asBool());
    EXPECT_GE(doc.at("store").at("failed_appends").asNumber(), 1.0);
}

// ---------------------------------------------------------------------
// The protocol-feature matrix: keep-alive, pipelining, slow-loris
// timeouts, mid-stream aborts, and per-client fair admission, all over
// real sockets (and all re-run under TSan by scripts/check.sh).
// ---------------------------------------------------------------------

namespace
{

/** Poll @p pred every couple of ms until true or @p timeout_ms. */
template <typename Pred>
bool
waitFor(Pred pred, int timeout_ms = 5000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

} // namespace

TEST(StudyServiceProtocol, KeepAliveReusesOneConnection)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());
    svc.start();

    HttpClient client("127.0.0.1", svc.port());
    std::string error;
    std::string first_body;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(client.send("GET", "/devices", "", false, error))
            << error;
        HttpResponse resp;
        ASSERT_TRUE(client.readResponse(resp, error)) << error;
        EXPECT_EQ(resp.status, 200);
        if (i == 0)
            first_body = resp.body;
        else
            EXPECT_EQ(resp.body, first_body);
    }
    EXPECT_EQ(client.reuses(), 2u);

    // /healthz on the same connection reports the loop's own view:
    // one connection accepted, reused for every request after its
    // first, nothing aborted or malformed.
    ASSERT_TRUE(client.send("GET", "/healthz", "", false, error))
        << error;
    HttpResponse health;
    ASSERT_TRUE(client.readResponse(health, error)) << error;
    JsonValue doc;
    ASSERT_TRUE(parseJson(health.body, doc, error)) << health.body;
    const JsonValue &server = doc.at("server");
    EXPECT_EQ(server.at("backend").asString(),
              pollerBackendName(defaultPollerBackend()));
    EXPECT_EQ(server.at("open").asNumber(), 1.0);
    EXPECT_EQ(server.at("accepted").asNumber(), 1.0);
    EXPECT_GE(server.at("keepalive_reuses").asNumber(), 3.0);
    EXPECT_EQ(server.at("in_flight").asNumber(), 0.0);
    EXPECT_EQ(server.at("aborted").asNumber(), 0.0);
    EXPECT_EQ(server.at("parse_errors").asNumber(), 0.0);
    EXPECT_GT(server.at("bytes_in").asNumber(), 0.0);
    EXPECT_GT(server.at("bytes_out").asNumber(), 0.0);

    svc.stop();
    EXPECT_EQ(svc.loopStats().keepAliveReuses, 3u);
}

TEST(StudyServiceProtocol, PipelinedRequestsAnswerInOrder)
{
    QuietLog quiet;
    StudyService svc(testServiceConfig());
    svc.start();

    // Two requests in one write; the responses must come back in
    // request order whatever the server's internal scheduling does.
    HttpClient client("127.0.0.1", svc.port());
    std::string error;
    ASSERT_TRUE(client.sendRaw("GET /devices HTTP/1.1\r\n\r\n"
                               "GET /healthz HTTP/1.1\r\n\r\n",
                               error))
        << error;

    HttpResponse devices;
    ASSERT_TRUE(client.readResponse(devices, error)) << error;
    EXPECT_EQ(devices.status, 200);
    EXPECT_EQ(devices.body,
              fleetToJson(DeviceRegistry::builtin().entries()) + "\n");

    HttpResponse health;
    ASSERT_TRUE(client.readResponse(health, error)) << error;
    EXPECT_EQ(health.status, 200);
    JsonValue doc;
    ASSERT_TRUE(parseJson(health.body, doc, error)) << health.body;
    EXPECT_EQ(doc.at("status").asString(), "ok");

    svc.stop();
}

TEST(StudyServiceProtocol, SlowLorisConnectionsTimeOut)
{
    QuietLog quiet;
    ServiceConfig cfg = testServiceConfig();
    cfg.idleTimeoutMs = 200;
    StudyService svc(cfg);
    svc.start();

    // Dribble a partial request head and stall: the idle deadline
    // must close the connection rather than hold the slot forever.
    HttpClient loris("127.0.0.1", svc.port());
    std::string error;
    ASSERT_TRUE(loris.sendRaw("GET /devices HTTP/1.1\r\nX-Drib", error))
        << error;
    HttpResponse never;
    EXPECT_FALSE(loris.readResponse(never, error));
    EXPECT_TRUE(waitFor([&] {
        return svc.loopStats().timeoutsFired >= 1;
    })) << "idle timeout never fired";

    // The server is unharmed: a well-behaved client still gets served.
    EXPECT_EQ(
        httpRequest("127.0.0.1", svc.port(), "GET", "/devices").status,
        200);
    svc.stop();
}

TEST(StudyServiceProtocol, MidStreamAbortIsCountedNotServed)
{
    QuietLog quiet;
    ServiceConfig cfg = testServiceConfig();
    cfg.workers = 1;
    StudyService svc(cfg);
    svc.pauseWorkersForTest();
    svc.start();

    // Queue a study, then abort the connection (RST) while the worker
    // still owes the response.
    HttpClient client("127.0.0.1", svc.port());
    std::string error;
    ASSERT_TRUE(
        client.send("POST", "/study", kUnitBody, false, error))
        << error;
    ASSERT_TRUE(waitFor([&] { return svc.stats().queued == 1; }));
    client.abortConnection();
    ASSERT_TRUE(waitFor([&] { return svc.loopStats().open == 0; }))
        << "loop never noticed the abort";

    // The worker finishes the now-orphaned study; the response is
    // dropped and counted, not delivered to a recycled connection.
    svc.resumeWorkersForTest();
    EXPECT_TRUE(waitFor([&] { return svc.loopStats().aborted == 1; }))
        << "aborted response never counted";
    svc.stop();
}

TEST(StudyServiceProtocol, FairShareAdmissionIsPerClient)
{
    QuietLog quiet;
    ServiceConfig cfg = testServiceConfig();
    cfg.workers = 1;
    cfg.queueDepth = 8;
    cfg.retryAfterSec = 1;
    StudyService svc(cfg);
    svc.pauseWorkersForTest();
    svc.start();

    // Client A (127.0.0.1) floods six studies into the queue.
    constexpr int kFlood = 6;
    std::vector<std::thread> flood;
    for (int i = 0; i < kFlood; ++i) {
        flood.emplace_back([&] {
            HttpResponse resp = httpRequest(
                "127.0.0.1", svc.port(), "POST", "/study", kUnitBody);
            EXPECT_EQ(resp.status, 200) << resp.body;
        });
    }
    ASSERT_TRUE(waitFor([&] { return svc.stats().queued == kFlood; }));

    // Client B (bound to 127.0.0.2, a distinct loopback identity)
    // is admitted: with two clients sharing depth 8 its share is 4
    // and it holds nothing yet.
    HttpClient b1("127.0.0.1", svc.port());
    std::string error;
    ASSERT_TRUE(b1.connect(error, "127.0.0.2")) << error;
    ASSERT_TRUE(b1.send("POST", "/study", kUnitBody, false, error))
        << error;
    ASSERT_TRUE(
        waitFor([&] { return svc.stats().queued == kFlood + 1; }));

    // A holds 6 of its share of 4: rejected for fairness while the
    // queue still has room (7 of 8), with a backlog-derived
    // Retry-After (7 queued / 1 worker = 7s).
    HttpResponse unfair = httpRequest("127.0.0.1", svc.port(), "POST",
                                      "/study", kUnitBody);
    EXPECT_EQ(unfair.status, 429);
    EXPECT_NE(unfair.body.find("fair queue share"), std::string::npos)
        << unfair.body;
    EXPECT_EQ(unfair.header("retry-after"), "7");

    // B's second study is still admitted (it holds 1 of 4), filling
    // the queue...
    HttpClient b2("127.0.0.1", svc.port());
    ASSERT_TRUE(b2.connect(error, "127.0.0.2")) << error;
    ASSERT_TRUE(b2.send("POST", "/study", kUnitBody, false, error))
        << error;
    ASSERT_TRUE(
        waitFor([&] { return svc.stats().queued == kFlood + 2; }));

    // ...so the next rejection is queue-full, not fairness.
    HttpResponse full = httpRequest("127.0.0.1", svc.port(), "POST",
                                    "/study", kUnitBody);
    EXPECT_EQ(full.status, 429);
    EXPECT_NE(full.body.find("queue full"), std::string::npos)
        << full.body;

    // Drain: everyone admitted gets a 200 with identical bytes.
    svc.resumeWorkersForTest();
    HttpResponse r1, r2;
    EXPECT_TRUE(b1.readResponse(r1, error)) << error;
    EXPECT_TRUE(b2.readResponse(r2, error)) << error;
    EXPECT_EQ(r1.status, 200);
    EXPECT_EQ(r2.status, 200);
    EXPECT_EQ(r1.body, r2.body);
    for (std::thread &t : flood)
        t.join();
    EXPECT_EQ(svc.stats().rejected, 2u);
    svc.stop();
}
