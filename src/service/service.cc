#include "service/service.hh"

#include <algorithm>
#include <optional>

#include "device/registry.hh"
#include "fault/fault.hh"
#include "report/json.hh"
#include "report/spec_json.hh"
#include "sampling/sampler.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

namespace
{

HttpResponse
errorResponse(int status, const std::string &message)
{
    JsonWriter w;
    w.beginObject();
    w.key("error").value(message);
    w.endObject();
    HttpResponse resp;
    resp.status = status;
    resp.body = w.str() + "\n";
    return resp;
}

HttpResponse
methodNotAllowed(const std::string &allowed)
{
    HttpResponse resp = errorResponse(405, "method not allowed");
    resp.headers.emplace_back("Allow", allowed);
    return resp;
}

/** Integer request field >= @p min, or the default; throws JsonError. */
int
intField(const JsonValue &doc, const char *key, int dflt, int min)
{
    const JsonValue *v = doc.find(key);
    if (!v)
        return dflt;
    std::optional<int> i = jsonInteger(v->asNumber(), min);
    if (!i) {
        throw JsonError(strfmt("'%s' must be an integer >= %d", key,
                               min));
    }
    return *i;
}

} // namespace

StudyService::StudyService(ServiceConfig cfg) : _cfg(std::move(cfg))
{
    if (!_cfg.cacheDir.empty()) {
        // Durable mode: the LRU fronts an on-disk record log, so a
        // restart rebuilds the cache instead of cold-starting it.
        std::size_t lru =
            _cfg.cacheEntries > 0 ? _cfg.cacheEntries : 1;
        _durable = std::make_unique<DurableCache>(
            _cfg.cacheDir, lru, _cfg.storeSyncEvery);
    } else if (_cfg.cacheEntries > 0) {
        _cache = std::make_unique<ResultCache>(_cfg.cacheEntries);
    }
    if (_cfg.workers < 1)
        _cfg.workers = 1;
}

ExperimentCache *
StudyService::activeCache()
{
    if (_durable)
        return _durable.get();
    return _cache.get();
}

StudyService::~StudyService()
{
    stop();
}

void
StudyService::start()
{
    HttpLoopConfig lc;
    lc.host = _cfg.host;
    lc.port = _cfg.port;
    lc.limits = _cfg.limits;
    lc.maxConns = _cfg.maxConns;
    lc.idleTimeoutMs = _cfg.idleTimeoutMs;

    _loop = std::make_unique<HttpServerLoop>(
        lc,
        [this](const HttpRequest &req, const std::string &client,
               HttpServerLoop::Token token, HttpResponse &out) {
            return onRequest(req, client, token, out);
        },
        [this](int status, const std::string &msg) {
            // Transport-level failure (malformed request, overload
            // shed): no handler ran, but a response still goes out.
            if (status == 400 || status == 413 || status == 431)
                ++_badRequests;
            ++_served;
            inform("request method=- path=- status=%d ms=0.0", status);
            return errorResponse(status, msg);
        },
        [this]() {
            if (faultCheck(FaultSite::HttpAccept).fired) {
                // Injected listener failure: the connection is
                // dropped before any bytes are read, as if the kernel
                // reset it. Clients see ECONNRESET and retry; studies
                // in flight are untouched.
                ++_rejected;
                warn("pvar_served: injected accept fault; connection "
                     "dropped");
                return false;
            }
            return true;
        });

    for (int i = 0; i < _cfg.workers; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
    _loop->start();
    _port = _loop->port();

    inform("pvar_served: listening on %s:%d (%s loop, %d workers, "
           "queue %zu, cache %zu)",
           _cfg.host.c_str(), _port,
           pollerBackendName(defaultPollerBackend()), _cfg.workers,
           _cfg.queueDepth, _cfg.cacheEntries);
}

void
StudyService::stop()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_stopping)
            return;
        _stopping = true;
        _paused = false;
    }
    _wake.notify_all();
    // Order matters: the loop stops accepting first, workers then
    // drain the queue (their completions flow back to the loop, which
    // flushes them before its own thread exits).
    if (_loop)
        _loop->requestStop();
    for (std::thread &w : _workers) {
        if (w.joinable())
            w.join();
    }
    _workers.clear();
    if (_loop)
        _loop->join();
    inform("pvar_served: drained (%llu served, %llu rejected)",
           static_cast<unsigned long long>(_served.load()),
           static_cast<unsigned long long>(_rejected.load()));
}

int
StudyService::retryAfterSeconds() const
{
    std::size_t queued;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        queued = _queue.size();
    }
    std::size_t workers = static_cast<std::size_t>(
        std::max(_cfg.workers, 1));
    std::size_t factor =
        std::max<std::size_t>(1, (queued + workers - 1) / workers);
    long secs = static_cast<long>(_cfg.retryAfterSec) *
                static_cast<long>(factor);
    return static_cast<int>(std::clamp<long>(secs, 1, 60));
}

bool
StudyService::onRequest(const HttpRequest &req,
                        const std::string &client,
                        HttpServerLoop::Token token, HttpResponse &out)
{
    auto start = std::chrono::steady_clock::now();

    // The heavy endpoints share the bounded study queue: a crowd
    // study is a fleet-sized batch of experiments, so it gets the
    // same backpressure as /study instead of blocking the loop.
    if (req.method == "POST" &&
        (req.path == "/study" || req.path == "/crowd")) {
        int reject_status = 0;
        std::string reject_msg;
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (_stopping) {
                reject_status = 503;
                reject_msg = "service shutting down";
            } else if (_queue.size() >= _cfg.queueDepth) {
                reject_status = 429;
                reject_msg = "study queue full; retry later";
            } else {
                // Fair admission: with K client addresses holding
                // queued studies, none may hold more than
                // queueDepth / K slots. A lone client still gets the
                // whole queue; a greedy one among many gets 429 while
                // the others' share stays admittable.
                auto mine = _pendingByClient.find(client);
                std::size_t held =
                    mine == _pendingByClient.end() ? 0 : mine->second;
                std::size_t competitors =
                    _pendingByClient.size() + (held == 0 ? 1 : 0);
                std::size_t share = std::max<std::size_t>(
                    1, _cfg.queueDepth / competitors);
                if (held >= share) {
                    reject_status = 429;
                    reject_msg =
                        "client over fair queue share; retry later";
                } else {
                    _queue.push_back(Job{token, req.body, req.method,
                                         req.path, client, start});
                    ++_pendingByClient[client];
                    _wake.notify_one();
                    return false; // a worker completes it later
                }
            }
        }
        out = errorResponse(reject_status, reject_msg);
        out.headers.emplace_back("Retry-After",
                                 strfmt("%d", retryAfterSeconds()));
        finalize(req.method, req.path, out, start);
        return true;
    }

    out = handle(req);
    finalize(req.method, req.path, out, start);
    return true;
}

void
StudyService::workerLoop(int worker_id)
{
    setLogThreadTag(strfmt("svc%d", worker_id));
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock, [this] {
                return _stopping || (!_paused && !_queue.empty());
            });
            // Drain: even when stopping, queued studies are finished
            // before the worker exits.
            if (_queue.empty()) {
                if (_stopping)
                    return;
                continue;
            }
            job = std::move(_queue.front());
            _queue.pop_front();
            auto it = _pendingByClient.find(job.client);
            if (it != _pendingByClient.end() && --it->second == 0)
                _pendingByClient.erase(it);
        }
        ++_inFlight;
        HttpResponse resp = job.path == "/crowd"
                                ? handleCrowd(job.body)
                                : handleStudy(job.body);
        --_inFlight;
        // Count before the bytes go out: a client that has read its
        // response must observe the updated counters on /healthz.
        finalize(job.method, job.path, resp, job.start);
        _loop->complete(job.token, std::move(resp));
    }
}

void
StudyService::finalize(const std::string &method,
                       const std::string &path,
                       const HttpResponse &resp,
                       std::chrono::steady_clock::time_point start)
{
    ++_served;
    if (resp.status == 429)
        ++_rejected;

    // One structured line per request, for ops debugging: what was
    // asked, what came back, how long it took end to end.
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    inform("request method=%s path=%s status=%d ms=%.1f",
           method.empty() ? "-" : method.c_str(),
           path.empty() ? "-" : path.c_str(), resp.status, ms);
}

HttpResponse
StudyService::handle(const HttpRequest &req)
{
    if (req.path == "/healthz") {
        if (req.method != "GET")
            return methodNotAllowed("GET");
        return handleHealthz();
    }
    if (req.path == "/devices") {
        if (req.method != "GET")
            return methodNotAllowed("GET");
        return handleDevices();
    }
    if (req.path == "/study") {
        if (req.method != "POST")
            return methodNotAllowed("POST");
        return handleStudy(req.body);
    }
    if (req.path == "/crowd") {
        if (req.method != "POST")
            return methodNotAllowed("POST");
        return handleCrowd(req.body);
    }
    return errorResponse(404,
                         strfmt("no such endpoint '%s'",
                                req.path.c_str()));
}

HttpResponse
StudyService::handleHealthz()
{
    ServiceStats s = stats();
    JsonWriter w;
    w.beginObject();
    // Top-level status reflects the persistence layer: "degraded"
    // means studies still compute correctly but stopped persisting.
    w.key("status").value(
        _durable && _durable->degraded() ? "degraded" : "ok");
    w.key("cache");
    if (activeCache()) {
        ResultCacheStats cs = cacheStats();
        w.beginObject();
        w.key("hits").value(static_cast<long long>(cs.hits));
        w.key("misses").value(static_cast<long long>(cs.misses));
        w.key("entries").value(static_cast<long long>(cs.entries));
        w.key("capacity").value(static_cast<long long>(cs.capacity));
        w.key("evictions").value(static_cast<long long>(cs.evictions));
        w.endObject();
    } else {
        w.null();
    }
    w.key("store");
    if (_durable) {
        ExperimentStoreStats ss = _durable->storeStats();
        w.beginObject();
        w.key("records").value(static_cast<long long>(ss.records));
        w.key("bytes").value(static_cast<long long>(ss.bytes));
        w.key("hits").value(static_cast<long long>(ss.hits));
        w.key("misses").value(static_cast<long long>(ss.misses));
        w.key("appends").value(static_cast<long long>(ss.appends));
        w.key("syncs").value(static_cast<long long>(ss.syncs));
        w.key("recovered_records")
            .value(static_cast<long long>(ss.logRecords));
        w.key("truncated_bytes")
            .value(static_cast<long long>(ss.truncatedBytes));
        w.key("failed_appends")
            .value(static_cast<long long>(ss.failedAppends));
        w.key("failed_syncs")
            .value(static_cast<long long>(ss.failedSyncs));
        w.key("degraded").value(ss.degraded);
        w.endObject();
    } else {
        w.null();
    }
    // The event loop's own counters: how the transport is doing,
    // independent of what the studies compute.
    w.key("server");
    if (_loop) {
        HttpLoopStats ls = _loop->stats();
        w.beginObject();
        w.key("backend").value(pollerBackendName(defaultPollerBackend()));
        w.key("open").value(static_cast<long long>(ls.open));
        w.key("accepted").value(static_cast<long long>(ls.accepted));
        w.key("keepalive_reuses")
            .value(static_cast<long long>(ls.keepAliveReuses));
        w.key("in_flight").value(static_cast<long long>(s.inFlight));
        w.key("timeouts")
            .value(static_cast<long long>(ls.timeoutsFired));
        w.key("aborted").value(static_cast<long long>(ls.aborted));
        w.key("overload_closed")
            .value(static_cast<long long>(ls.overloadClosed));
        w.key("fd_exhausted_sheds")
            .value(static_cast<long long>(ls.fdExhaustedSheds));
        w.key("bytes_in").value(static_cast<long long>(ls.bytesIn));
        w.key("bytes_out").value(static_cast<long long>(ls.bytesOut));
        w.key("chunked")
            .value(static_cast<long long>(ls.chunkedResponses));
        w.key("parse_errors")
            .value(static_cast<long long>(ls.parseErrors));
        w.endObject();
    } else {
        w.null();
    }
    w.key("queue").beginObject();
    w.key("depth").value(static_cast<long long>(s.queued));
    w.key("capacity").value(static_cast<long long>(_cfg.queueDepth));
    w.endObject();
    w.key("requests").beginObject();
    w.key("served").value(static_cast<long long>(s.served));
    w.key("rejected").value(static_cast<long long>(s.rejected));
    w.key("bad").value(static_cast<long long>(s.badRequests));
    w.endObject();
    w.endObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    // Live counters: an intermediary replaying a stale copy would
    // mislead dashboards and the kill-recovery checks.
    resp.headers.emplace_back("Cache-Control", "no-store");
    return resp;
}

HttpResponse
StudyService::handleDevices()
{
    // The builtin registry is immutable: serialize it on the first
    // request (not at construction, which would slow every startup).
    std::call_once(_devicesOnce, [this] {
        _devicesBody =
            fleetToJson(DeviceRegistry::builtin().entries()) + "\n";
    });
    HttpResponse resp;
    resp.body = _devicesBody;
    resp.headers.emplace_back("Cache-Control", "no-store");
    return resp;
}

HttpResponse
StudyService::handleStudy(const std::string &body)
{
    try {
        HttpResponse resp;
        resp.body = runStudyRequest(body);
        return resp;
    } catch (const JsonError &e) {
        ++_badRequests;
        return errorResponse(400, e.what());
    } catch (const FaultError &e) {
        // Permanent fault (injected or escalated by the supervisor):
        // shed the request instead of crashing the service. The study
        // was not completed; the client should retry later.
        warn("pvar_served: study shed on permanent fault: %s",
             e.what());
        HttpResponse resp = errorResponse(503, e.what());
        resp.headers.emplace_back("Retry-After",
                                  strfmt("%d", retryAfterSeconds()));
        return resp;
    } catch (const std::exception &e) {
        warn("pvar_served: study failed: %s", e.what());
        return errorResponse(500, e.what());
    }
}

HttpResponse
StudyService::handleCrowd(const std::string &body)
{
    try {
        HttpResponse resp;
        resp.body = runCrowdRequest(body);
        return resp;
    } catch (const JsonError &e) {
        ++_badRequests;
        return errorResponse(400, e.what());
    } catch (const FaultError &e) {
        warn("pvar_served: crowd study shed on permanent fault: %s",
             e.what());
        HttpResponse resp = errorResponse(503, e.what());
        resp.headers.emplace_back("Retry-After",
                                  strfmt("%d", retryAfterSeconds()));
        return resp;
    } catch (const std::exception &e) {
        warn("pvar_served: crowd study failed: %s", e.what());
        return errorResponse(500, e.what());
    }
}

std::string
StudyService::runCrowdRequest(const std::string &body)
{
    JsonValue doc;
    std::string error;
    if (!parseJson(body, doc, error))
        throw JsonError(error);
    if (!doc.isObject())
        throw JsonError("crowd request must be a JSON object");
    if (!doc.find("dies"))
        throw JsonError("'dies' is required");

    CrowdStudyConfig cfg;
    cfg.population.size = static_cast<std::uint64_t>(
        intField(doc, "dies", 0, 1));
    cfg.population.seed = static_cast<std::uint64_t>(
        intField(doc, "seed", static_cast<int>(cfg.population.seed),
                 0));
    cfg.strata = intField(doc, "strata", cfg.strata, 1);
    cfg.iterations = intField(doc, "iterations", cfg.iterations, 1);
    if (const JsonValue *target = doc.find("ci_target")) {
        double t = target->asNumber();
        if (t <= 0.0)
            throw JsonError("'ci_target' must be a positive "
                            "percentage");
        cfg.ciTargetPercent = t;
    }
    if (const JsonValue *soc = doc.find("soc")) {
        if (!DeviceRegistry::builtin().find(soc->asString())) {
            throw JsonError(strfmt("unknown SoC or model '%s'",
                                   soc->asString().c_str()));
        }
        cfg.population.socName = soc->asString();
    }
    if (const JsonValue *solver = doc.find("solver")) {
        if (!parseSolverKind(solver->asString(), cfg.solver))
            throw JsonError(
                strfmt("'solver' must be \"stepped\" or \"fast\", "
                       "got \"%s\"",
                       solver->asString().c_str()));
    }

    // Shared deployment knobs: the same fan-out and technique
    // parameters the /study path runs with.
    cfg.jobs = _cfg.study.jobs;
    cfg.batch = _cfg.study.batch;
    cfg.accubench = _cfg.study.accubench;

    std::unique_ptr<DurableLivePointCache> live_points;
    if (_durable) {
        live_points = std::make_unique<DurableLivePointCache>(
            _durable->store());
        cfg.livePoints = live_points.get();
    }

    CrowdStudyResult r = runCrowdStudy(cfg);
    // Exactly the bytes pvar_study --crowd prints for the same input.
    return crowdStudyJson(r) + "\n";
}

std::string
StudyService::runStudyRequest(const std::string &body)
{
    JsonValue doc;
    std::string error;
    if (!parseJson(body, doc, error))
        throw JsonError(error);

    StudyConfig cfg = _cfg.study;
    cfg.cache = activeCache();
    if (doc.isObject()) {
        cfg.iterations =
            intField(doc, "iterations", cfg.iterations, 1);
        if (const JsonValue *ambient = doc.find("ambient")) {
            // Mirror pvar_study --ambient: chamber target plus the
            // cooldown margin.
            double t = ambient->asNumber();
            cfg.thermabox.target = Celsius(t);
            cfg.accubench.cooldownTarget = Celsius(t + 6.0);
        }
        if (const JsonValue *solver = doc.find("solver")) {
            if (!parseSolverKind(solver->asString(), cfg.solver))
                throw JsonError(
                    strfmt("'solver' must be \"stepped\" or \"fast\", "
                           "got \"%s\"",
                           solver->asString().c_str()));
        }
    }

    const JsonValue *soc =
        doc.isObject() ? doc.find("soc") : nullptr;
    const JsonValue *device =
        doc.isObject() ? doc.find("device") : nullptr;
    if (soc && device)
        throw JsonError("'soc' and 'device' are exclusive");

    std::vector<SocStudy> studies;
    if (soc) {
        const RegistryEntry *e =
            DeviceRegistry::builtin().find(soc->asString());
        if (!e) {
            throw JsonError(strfmt("unknown SoC or model '%s'",
                                   soc->asString().c_str()));
        }
        studies.push_back(runEntryStudy(*e, cfg));
    } else if (device) {
        UnitRef ref =
            DeviceRegistry::builtin().findUnit(device->asString());
        if (!ref.entry) {
            throw JsonError(strfmt("unknown unit '%s'",
                                   device->asString().c_str()));
        }
        studies.push_back(runUnitStudy(*ref.entry, ref.unitIndex, cfg));
    } else {
        // A fleet document: the same schema pvar_study --fleet reads.
        // Entries must outlive the flattened task list.
        std::vector<RegistryEntry> fleet = fleetFromJson(doc);
        std::vector<const RegistryEntry *> entries;
        entries.reserve(fleet.size());
        for (const RegistryEntry &e : fleet)
            entries.push_back(&e);
        studies = runStudy(entries, cfg);
    }
    // Exactly the bytes pvar_study --json prints for the same input.
    return toJson(studies) + "\n";
}

ServiceStats
StudyService::stats() const
{
    ServiceStats s;
    s.served = _served.load();
    s.rejected = _rejected.load();
    s.badRequests = _badRequests.load();
    s.inFlight = _inFlight.load();
    std::lock_guard<std::mutex> lock(_mutex);
    s.queued = _queue.size();
    return s;
}

ResultCacheStats
StudyService::cacheStats() const
{
    if (_durable)
        return _durable->lruStats();
    if (!_cache)
        return ResultCacheStats{};
    return _cache->stats();
}

HttpLoopStats
StudyService::loopStats() const
{
    if (!_loop)
        return HttpLoopStats{};
    return _loop->stats();
}

ExperimentStoreStats
StudyService::storeStats() const
{
    if (!_durable)
        return ExperimentStoreStats{};
    return _durable->storeStats();
}

void
StudyService::pauseWorkersForTest()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _paused = true;
}

void
StudyService::resumeWorkersForTest()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _paused = false;
    }
    _wake.notify_all();
}

} // namespace pvar
