/**
 * @file
 * The long-running study service behind pvar_served.
 *
 * Exposes the registry/fleet/ACCUBENCH machinery over HTTP:
 *
 *   GET  /healthz  liveness + cache/queue/server/request counters
 *   GET  /devices  the built-in registry as a fleet document
 *   POST /study    run the protocol; body is either a fleet document
 *                  (the same schema pvar_study --fleet reads) or a
 *                  single-target request:
 *                    {"soc": "SD-805"} | {"device": "dev-363"}
 *                  optionally with "iterations" and "ambient"
 *                  overrides (fleet documents accept them as wrapper
 *                  keys next to "fleet").
 *   POST /crowd    characterize an N-die population by stratified
 *                  sampling (sampling/sampler.hh); body:
 *                    {"dies": 100000}
 *                  optionally with "strata", "ci_target", "seed",
 *                  "iterations", "soc", and "solver" overrides. The
 *                  response is exactly the bytes pvar_study --crowd
 *                  prints for the same parameters.
 *
 * Architecture (since the event-loop rewrite): ONE loop thread
 * (service/eventloop.hh) owns every socket — accept, parse, write —
 * with keep-alive, pipelining, chunked streaming for large bodies,
 * and idle/slow-loris timeouts. The loop calls this class's handler
 * for each parsed request; cheap endpoints answer inline on the loop
 * thread, while /study and /crowd go through a *bounded* queue to a
 * small pool of study workers (each of which fans its experiments out
 * onto the process-wide parallelFor pool, sim/parallel.hh, with the
 * worker itself as one lane) and come back to the loop over its
 * wakeup pipe. The GET /devices body is serialized once, by its first
 * request. A full queue answers 429 with a Retry-After header
 * derived from the backlog — backpressure instead of unbounded
 * memory. Admission is additionally fair per client: when several
 * client addresses compete, no one address may hold more than its
 * share (queueDepth / clients) of the queue, so one greedy tenant
 * cannot starve the rest while the queue still has room. stop()
 * drains: no new connections, queued studies finish, in-flight
 * responses flush, workers and loop join.
 *
 * Determinism contract: byte-identical request bodies produce
 * byte-identical response bodies — cached or not, at any jobs count.
 * POST /study responses are exactly the bytes `pvar_study --json`
 * emits for the same input, so clients can diff CLI and service
 * output directly (chunked transfer framing is transport-level; the
 * de-chunked body is the identical bytes). All experiment work is
 * routed through the content-addressed ResultCache, so identical
 * study units are simulated once per cache lifetime.
 */

#ifndef PVAR_SERVICE_SERVICE_HH
#define PVAR_SERVICE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "accubench/protocol.hh"
#include "service/eventloop.hh"
#include "service/http.hh"
#include "store/durable_cache.hh"
#include "store/result_cache.hh"

namespace pvar
{

/** Service deployment knobs. */
struct ServiceConfig
{
    /** Bind address (loopback by default; widen deliberately). */
    std::string host = "127.0.0.1";

    /** Listen port; 0 picks an ephemeral port (see port()). */
    int port = 0;

    /** Study worker threads (concurrent /study jobs). */
    int workers = 2;

    /** Bounded pending-study queue depth; beyond it, 429. */
    std::size_t queueDepth = 8;

    /**
     * Base Retry-After seconds for 429/503. The advertised value
     * scales with the backlog: base * ceil(queued / workers), clamped
     * to [1, 60] — an idle service says "base", a saturated one says
     * roughly how long the queue needs to drain.
     */
    int retryAfterSec = 1;

    /** Open-connection cap; beyond it, accepts answer 503 + close. */
    int maxConns = 256;

    /** Per-connection idle/slow-loris deadline, in ms. */
    int idleTimeoutMs = 5000;

    /** Readiness backend for the event loop. */
    PollerBackend backend = defaultPollerBackend();

    /** Result-cache capacity, in experiments; 0 disables caching. */
    std::size_t cacheEntries = 128;

    /**
     * Durable store directory. When set, results are persisted to an
     * append-only log under this directory and reloaded on restart
     * (warm starts), with the LRU above as the memory layer; empty
     * keeps the cache memory-only. See store/durable_cache.hh.
     */
    std::string cacheDir;

    /** fsync batching for the durable store's record log. */
    int storeSyncEvery = 8;

    /**
     * Base study settings (iterations, ambient, experiment jobs).
     * Per-request "iterations"/"ambient" override a copy.
     */
    StudyConfig study;

    /** Transport limits for each connection. */
    HttpLimits limits;
};

/** Point-in-time counters for /healthz and tests. */
struct ServiceStats
{
    std::uint64_t served = 0;    ///< responses written (any status)
    std::uint64_t rejected = 0;  ///< 429 backpressure responses
    std::uint64_t badRequests = 0; ///< 400 responses
    std::size_t queued = 0;      ///< studies waiting for a worker
    std::uint64_t inFlight = 0;  ///< studies being computed right now
};

class StudyService
{
  public:
    explicit StudyService(ServiceConfig cfg);
    ~StudyService();

    StudyService(const StudyService &) = delete;
    StudyService &operator=(const StudyService &) = delete;

    /**
     * Bind, listen, and spawn the loop + worker threads. Fatal on
     * bind/listen failure (the deployment is unusable).
     */
    void start();

    /**
     * Graceful drain: stop accepting, let queued studies finish and
     * their responses flush, join every thread. Idempotent.
     */
    void stop();

    /** The bound port (useful with cfg.port = 0). */
    int port() const { return _port; }

    ServiceStats stats() const;
    ResultCacheStats cacheStats() const;

    /** Event-loop counters; zeros before start(). */
    HttpLoopStats loopStats() const;

    /** Durable-store counters; zeros when no cacheDir is configured. */
    ExperimentStoreStats storeStats() const;

    /**
     * Pause/resume the study workers. Test hook: with workers paused,
     * queued studies accumulate deterministically so backpressure can
     * be exercised without racing the workers.
     */
    void pauseWorkersForTest();
    void resumeWorkersForTest();

    /** Handle one parsed request (transport-free; tests use this). */
    HttpResponse handle(const HttpRequest &req);

  private:
    struct Job
    {
        HttpServerLoop::Token token;
        std::string body;
        /** Request identity + arrival time for the per-request log. */
        std::string method;
        std::string path;
        /** Peer address, for per-client fair admission. */
        std::string client;
        std::chrono::steady_clock::time_point start;
    };

    ServiceConfig _cfg;
    int _port = 0;
    std::unique_ptr<ResultCache> _cache;
    std::unique_ptr<DurableCache> _durable;
    std::unique_ptr<HttpServerLoop> _loop;

    std::vector<std::thread> _workers;

    mutable std::mutex _mutex;
    std::condition_variable _wake;
    std::deque<Job> _queue;
    /** Queued studies per client address (fair admission). */
    std::unordered_map<std::string, std::size_t> _pendingByClient;
    bool _stopping = false;
    bool _paused = false;

    std::atomic<std::uint64_t> _served{0};
    std::atomic<std::uint64_t> _rejected{0};
    std::atomic<std::uint64_t> _badRequests{0};
    std::atomic<std::uint64_t> _inFlight{0};

    /** The GET /devices body, built by the first request. */
    std::once_flag _devicesOnce;
    std::string _devicesBody;

    /** Loop-thread callback: route, admit, or reject one request. */
    bool onRequest(const HttpRequest &req, const std::string &client,
                   HttpServerLoop::Token token, HttpResponse &out);

    void workerLoop(int worker_id);

    /** Count + log one finished response (any thread). */
    void finalize(const std::string &method, const std::string &path,
                  const HttpResponse &resp,
                  std::chrono::steady_clock::time_point start);

    /** Backlog-scaled Retry-After value, in seconds. */
    int retryAfterSeconds() const;

    /** The active experiment memoizer: durable, memory, or none. */
    ExperimentCache *activeCache();

    HttpResponse handleHealthz();
    HttpResponse handleDevices();
    HttpResponse handleStudy(const std::string &body);
    HttpResponse handleCrowd(const std::string &body);

    /** Run the study a /study body describes (throws JsonError). */
    std::string runStudyRequest(const std::string &body);

    /** Run the crowd study a /crowd body describes (throws JsonError). */
    std::string runCrowdRequest(const std::string &body);
};

} // namespace pvar

#endif // PVAR_SERVICE_SERVICE_HH
