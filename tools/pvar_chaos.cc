/**
 * @file
 * pvar_chaos: chaos-soak the study service under syscall faults.
 *
 *   pvar_chaos [options]
 *     --seeds N         fault-plan seeds to soak (default 10)
 *     --duration S      seconds of load per seed (default 5)
 *     --base-seed K     first seed (default 1)
 *     --connections N   loadgen connections per seed (default 2)
 *     --retries N       loadgen retries per request (default 6)
 *     --jobs N          experiment workers in the service (default 1)
 *     --keep            keep each seed's scratch directory
 *     --verbose         keep the child service's logging
 *     --help            this text
 *
 * For each seed the harness derives a deterministic fault plan over
 * the syscall sites (net.accept EMFILE/ECONNABORTED, net.read short
 * reads / resets / EAGAIN storms, net.write short writes / EPIPE,
 * store.write ENOSPC / torn writes, store.fsync EIO, EINTR on all),
 * fork()s a child that installs it and serves /study from a scratch
 * store directory, then hammers the child with the loadgen core while
 * the parent — which never installs a plan — holds the oracle.
 *
 * Invariants checked per seed, the contract fault injection must not
 * break:
 *
 *  1. the service survives the whole window (no crash, no exit);
 *  2. every 2xx /study body is byte-identical to the oracle computed
 *     through the transport-free handler (what `pvar_study --json`
 *     prints for the same request);
 *  3. every non-2xx response is deliberate load shedding (429/503),
 *     never a 5xx from a leaked fault;
 *  4. /healthz still answers coherently under fire (status "ok" or
 *     "degraded", queue depth within capacity, degraded status backed
 *     by the store's own counters);
 *  5. after SIGKILL mid-traffic, the store directory recovers with
 *     zero undecodable live records (torn tails may truncate, a
 *     degraded marker may remain — both are the store *correctly
 *     reporting* degradation, not corruption).
 *
 * Transport errors at the client are expected under reset/abort
 * injection (retries can exhaust); they are reported but do not fail
 * the soak. Exit status: 0 when every seed upheld every invariant.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fault/fault.hh"
#include "report/fault_json.hh"
#include "report/json.hh"
#include "service/loadgen.hh"
#include "service/service.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "store/store.hh"

using namespace pvar;

namespace
{

/** The study every request runs; small enough to finish in ~10ms. */
const char *kStudyBody = R"({"device": "SD-805:unit-b", "iterations": 1})";

void
usage()
{
    std::printf(
        "pvar_chaos: soak the study service under syscall faults\n"
        "\n"
        "  --seeds N         fault-plan seeds to soak (default 10)\n"
        "  --duration S      seconds of load per seed (default 5)\n"
        "  --base-seed K     first seed (default 1)\n"
        "  --connections N   loadgen connections per seed (default 2)\n"
        "  --retries N       loadgen retries per request (default 6)\n"
        "  --jobs N          experiment workers in the service "
        "(default 1)\n"
        "  --keep            keep each seed's scratch directory\n"
        "  --verbose         keep the child service's logging\n"
        "  --help            this text\n"
        "\n"
        "Per seed: fork a service with a derived fault plan over the\n"
        "net.*/store.* syscall sites, drive /study for the window,\n"
        "then SIGKILL it mid-traffic. Fails unless the service never\n"
        "crashes, every 2xx body is byte-identical to the CLI oracle,\n"
        "non-2xx responses are all deliberate sheds, /healthz stays\n"
        "coherent, and the store recovers with zero bad records.\n");
}

/** Parse an integer option value or die with a one-line error. */
long long
intArg(const std::string &opt, const char *text, long long min)
{
    long long v = 0;
    if (!parseIntStrict(text, v) || v < min) {
        fatal("pvar_chaos: %s needs an integer >= %lld, got '%s'",
              opt.c_str(), min, text);
    }
    return v;
}

/** Deterministic per-seed parameter in [lo, hi] (inclusive). */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt, std::uint64_t lo,
       std::uint64_t hi)
{
    return lo + faultScopeId(seed, salt) % (hi - lo + 1);
}

/**
 * The fault plan one seed soaks under. Every knob is a pure function
 * of the seed, so a failing seed replays from its number alone (the
 * plan is also dumped to the scratch directory as plan.json). EINTR
 * rules MUST carry a `times` cap: the shim never performs the call on
 * an EINTR hit, so an uncapped every:1 rule would starve a correct
 * retry loop forever.
 */
FaultPlan
makeChaosPlan(std::uint64_t seed)
{
    FaultPlan plan(seed);
    auto rule = [&plan](FaultSite site, SysFaultMode mode) {
        FaultRule r;
        r.site = site;
        r.kind = FaultKind::Io;
        r.mode = mode;
        return r;
    };

    // net.accept: periodic fd exhaustion (exercises the reserve-fd
    // shed), sporadic backlog aborts, a bounded EINTR burst.
    FaultRule r = rule(FaultSite::NetAccept, SysFaultMode::Emfile);
    r.after = derive(seed, 1, 20, 60);
    r.every = derive(seed, 2, 37, 97);
    r.times = 8;
    plan.addRule(r);
    r = rule(FaultSite::NetAccept, SysFaultMode::ConnAborted);
    r.probability = 0.002 * static_cast<double>(derive(seed, 3, 1, 5));
    plan.addRule(r);
    r = rule(FaultSite::NetAccept, SysFaultMode::Eintr);
    r.every = derive(seed, 4, 53, 113);
    r.times = 16;
    plan.addRule(r);

    // net.read: short reads (parser must resume), peer resets, EAGAIN
    // storms (loop must re-arm, not spin), EINTR.
    r = rule(FaultSite::NetRead, SysFaultMode::Short);
    r.probability = 0.01 * static_cast<double>(derive(seed, 5, 2, 6));
    r.value = 0.05 * static_cast<double>(derive(seed, 6, 4, 12));
    plan.addRule(r);
    r = rule(FaultSite::NetRead, SysFaultMode::ConnReset);
    r.probability = 0.002 * static_cast<double>(derive(seed, 7, 1, 6));
    plan.addRule(r);
    r = rule(FaultSite::NetRead, SysFaultMode::Eagain);
    r.every = derive(seed, 8, 41, 101);
    r.times = 32;
    plan.addRule(r);
    r = rule(FaultSite::NetRead, SysFaultMode::Eintr);
    r.every = derive(seed, 9, 47, 107);
    r.times = 32;
    plan.addRule(r);

    // net.write: short writes mid-chunk (streamer must resume from
    // its offset), EPIPE, EINTR.
    r = rule(FaultSite::NetWrite, SysFaultMode::Short);
    r.probability = 0.01 * static_cast<double>(derive(seed, 10, 3, 8));
    r.value = 0.05 * static_cast<double>(derive(seed, 11, 4, 12));
    plan.addRule(r);
    r = rule(FaultSite::NetWrite, SysFaultMode::Pipe);
    r.probability = 0.001 * static_cast<double>(derive(seed, 12, 1, 6));
    plan.addRule(r);
    r = rule(FaultSite::NetWrite, SysFaultMode::Eintr);
    r.every = derive(seed, 13, 43, 103);
    r.times = 32;
    plan.addRule(r);

    // store.write: torn writes early (writeAll resumes them), then a
    // short ENOSPC episode late enough to spare the boot header.
    r = rule(FaultSite::StoreWrite, SysFaultMode::Short);
    r.probability = 0.01 * static_cast<double>(derive(seed, 14, 1, 4));
    r.value = 0.5;
    plan.addRule(r);
    r = rule(FaultSite::StoreWrite, SysFaultMode::NoSpace);
    r.after = derive(seed, 15, 120, 400);
    r.every = derive(seed, 16, 151, 331);
    r.times = 2;
    plan.addRule(r);

    // store.fsync: sporadic EIO at the durability point. The factor
    // may derive to zero, so some seeds keep a healthy store all the
    // way through — degraded and non-degraded recovery both soak.
    r = rule(FaultSite::StoreFsync, SysFaultMode::Default);
    r.probability = 0.005 * static_cast<double>(derive(seed, 17, 0, 3));
    plan.addRule(r);

    // http.accept: the pre-existing site — accepted connections
    // vanish before the first byte.
    r = rule(FaultSite::HttpAccept, SysFaultMode::Default);
    r.probability = 0.002 * static_cast<double>(derive(seed, 18, 1, 4));
    plan.addRule(r);

    return plan;
}

/** Scratch directory for one seed; empty string on failure. */
std::string
makeScratchDir(std::uint64_t seed)
{
    const char *base = std::getenv("TMPDIR");
    std::string tmpl = strfmt("%s/pvar_chaos.%llu.XXXXXX",
                              base && *base ? base : "/tmp",
                              static_cast<unsigned long long>(seed));
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr)
        return "";
    return std::string(buf.data());
}

/** Best-effort removal of a seed's scratch directory. */
void
removeScratchDir(const std::string &dir)
{
    for (const char *name :
         {"store/experiments.log", "store/experiments.log.compact",
          "store/store.degraded"}) {
        ::remove((dir + "/" + name).c_str());
    }
    ::rmdir((dir + "/store").c_str());
    ::remove((dir + "/plan.json").c_str());
    ::rmdir(dir.c_str());
}

/**
 * The child half of one seed: install the plan, serve from the
 * scratch store, report the port over @p port_fd, then wait to be
 * SIGKILLed. Never returns.
 */
[[noreturn]] void
runChild(const FaultPlan &plan, const std::string &dir, int jobs,
         bool verbose, int port_fd)
{
    if (!verbose)
        setLogLevel(LogLevel::Quiet);

    ServiceConfig cfg;
    cfg.port = 0;
    cfg.workers = 2;
    cfg.queueDepth = 4; // small: sheds happen under real load
    cfg.maxConns = 64;
    cfg.idleTimeoutMs = 2000;
    cfg.cacheEntries = 8;
    cfg.cacheDir = dir + "/store";
    cfg.storeSyncEvery = 2; // exercise the fsync site often
    cfg.study.jobs = jobs;
    StudyService service(std::move(cfg));
    service.start();

    // Arm the plan only after a clean boot: the soak interrogates the
    // serving path, and a seed whose first store write dies would
    // otherwise spend its whole window degraded.
    installFaultPlan(std::make_shared<FaultPlan>(plan));

    std::string line = strfmt("%d\n", service.port());
    ssize_t n;
    do {
        n = ::write(port_fd, line.data(), line.size());
    } while (n < 0 && errno == EINTR);
    ::close(port_fd);

    while (true)
        ::pause(); // parent SIGKILLs us mid-traffic
    std::abort();  // unreachable
}

/** Read the child's "port\n" line; 0 when the child died first. */
int
readPortLine(int fd)
{
    std::string text;
    char c = 0;
    while (true) {
        ssize_t n = ::read(fd, &c, 1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0 || c == '\n')
            break;
        text.push_back(c);
    }
    long long port = 0;
    if (!parseIntStrict(text, port) || port <= 0 || port > 65535)
        return 0;
    return static_cast<int>(port);
}

/**
 * True for the event loop's accept-time shed: the 503 it answers when
 * an injected EMFILE accept (or the connection cap) makes it drop a
 * connection before reading the request. The handler never saw the
 * request, so the shed says nothing about /healthz.
 */
bool
isConnectionShed(const HttpResponse &resp)
{
    JsonValue doc;
    std::string error;
    if (resp.status != 503 || !parseJson(resp.body, doc, error))
        return false;
    const JsonValue *message = doc.find("error");
    return message && message->isString() &&
           message->asString() == kConnectionShedMessage;
}

/**
 * GET /healthz with a few attempts: faults can drop the connection or
 * shed it at accept, and both are retried. A budget spent entirely on
 * sheds hands back the last one, so invariant 4 still fails on it.
 */
bool
fetchHealthz(const std::string &host, int port, HttpResponse &out)
{
    bool shed = false;
    for (int attempt = 0; attempt < 10; ++attempt) {
        HttpClient client(host, port);
        HttpResponse resp;
        std::string error;
        if (client.send("GET", "/healthz", "", true, error) &&
            client.readResponse(resp, error)) {
            shed = isConnectionShed(resp);
            out = std::move(resp);
            if (!shed)
                return true;
        }
        ::usleep(50 * 1000);
    }
    return shed;
}

/** One seed's verdict. */
struct SeedResult
{
    std::uint64_t seed = 0;
    LoadGenReport load;
    bool degraded = false;           ///< store went memory-only
    std::uint64_t truncated = 0;     ///< torn tail bytes recovered
    std::uint64_t records = 0;       ///< live records after recovery
    std::vector<std::string> failures;
};

/**
 * Invariant 4: /healthz parses and its counters are mutually
 * consistent. Appends a description of each violation.
 */
void
checkHealthz(const HttpResponse &resp, const LoadGenReport &load,
             std::vector<std::string> &failures)
{
    if (resp.status != 200) {
        failures.push_back(
            strfmt("healthz answered %d, not 200: %s", resp.status,
                   resp.body.c_str()));
        return;
    }
    JsonValue doc;
    std::string error;
    if (!parseJson(resp.body, doc, error) || !doc.isObject()) {
        failures.push_back("healthz body is not a JSON object: " +
                           error);
        return;
    }
    const JsonValue *status = doc.find("status");
    if (!status ||
        (status->asString() != "ok" &&
         status->asString() != "degraded")) {
        failures.push_back("healthz status is neither ok nor degraded");
        return;
    }
    const JsonValue *queue = doc.find("queue");
    if (!queue || !queue->isObject() || !queue->find("depth") ||
        !queue->find("capacity") ||
        queue->find("depth")->asNumber() >
            queue->find("capacity")->asNumber()) {
        failures.push_back("healthz queue depth exceeds capacity");
    }
    // "degraded" must be the store's own verdict, not an invention.
    const JsonValue *store = doc.find("store");
    if (status->asString() == "degraded" &&
        (!store || !store->isObject() || !store->find("degraded") ||
         !store->find("degraded")->asBool())) {
        failures.push_back(
            "healthz says degraded but the store does not");
    }
    // Every 2xx the loadgen recorded was served by this process.
    const JsonValue *requests = doc.find("requests");
    std::uint64_t twoxx = 0;
    for (const auto &[code, count] : load.statuses)
        if (code >= 200 && code < 300)
            twoxx += count;
    if (!requests || !requests->isObject() ||
        !requests->find("served") ||
        requests->find("served")->asNumber() <
            static_cast<double>(twoxx)) {
        failures.push_back(
            "healthz served count below the responses observed");
    }
}

/**
 * Invariant 5: reopen the scratch store after SIGKILL the way
 * pvar_storectl verify would and demand zero undecodable records.
 * Truncated tails and a degraded marker are the store *reporting*
 * what the faults did, and pass.
 */
void
verifyStore(const std::string &dir, SeedResult &result)
{
    ExperimentStore store(dir + "/store", /*sync_every=*/0);
    std::uint64_t bad = 0, live = 0, results = 0;
    store.forEach(
        [&results](const std::string &, const ExperimentResult &) {
            ++results;
        },
        &bad, &live);
    ExperimentStoreStats stats = store.stats();
    result.degraded = stats.degraded || stats.degradedMarker;
    result.truncated = stats.truncatedBytes;
    result.records = results + live;
    if (bad != 0) {
        result.failures.push_back(strfmt(
            "store recovered %llu undecodable record(s)",
            static_cast<unsigned long long>(bad)));
    }
}

/** Run one seed end to end. */
SeedResult
soakSeed(std::uint64_t seed, int duration_sec, int connections,
         int retries, int jobs, const std::string &oracle, bool keep,
         bool verbose)
{
    SeedResult result;
    result.seed = seed;

    std::string dir = makeScratchDir(seed);
    if (dir.empty()) {
        result.failures.push_back("cannot create scratch directory");
        return result;
    }
    FaultPlan plan = makeChaosPlan(seed);
    {
        std::ofstream f(dir + "/plan.json");
        f << toJson(plan);
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        fatal("pvar_chaos: pipe: %s", std::strerror(errno));
    pid_t pid = ::fork();
    if (pid < 0)
        fatal("pvar_chaos: fork: %s", std::strerror(errno));
    if (pid == 0) {
        ::close(pipe_fds[0]);
        runChild(plan, dir, jobs, verbose, pipe_fds[1]);
    }
    ::close(pipe_fds[1]);
    int port = readPortLine(pipe_fds[0]);
    ::close(pipe_fds[0]);

    int status = 0;
    if (port == 0) {
        ::waitpid(pid, &status, 0);
        result.failures.push_back("service failed to boot");
        if (!keep)
            removeScratchDir(dir);
        return result;
    }

    LoadGenConfig lg;
    lg.host = "127.0.0.1";
    lg.port = port;
    lg.method = "POST";
    lg.path = "/study";
    lg.body = kStudyBody;
    lg.connections = connections;
    lg.durationMs = duration_sec * 1000;
    lg.warmupMs = 0;
    lg.maxRetries = retries;
    lg.retryBaseMs = 5;
    lg.retryCapMs = 250;
    lg.expectBody = oracle;
    result.load = runLoadGen(lg);

    // Invariant 1: still alive after the whole window.
    pid_t waited = ::waitpid(pid, &status, WNOHANG);
    if (waited == pid) {
        result.failures.push_back(strfmt(
            "service died during the run (%s %d)",
            WIFSIGNALED(status) ? "signal" : "exit",
            WIFSIGNALED(status) ? WTERMSIG(status)
                                : WEXITSTATUS(status)));
    } else {
        // Invariant 4, while it is still up.
        HttpResponse health;
        if (!fetchHealthz(lg.host, port, health))
            result.failures.push_back("healthz unreachable");
        else
            checkHealthz(health, result.load, result.failures);

        // The cold-stop crash: no drain, no final fsync.
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
            result.failures.push_back(
                "service was gone before the SIGKILL landed");
        }
    }

    // Invariant 2: byte-identity of every successful body.
    if (result.load.bodyMismatches != 0) {
        result.failures.push_back(strfmt(
            "%llu response bodies diverged from the oracle",
            static_cast<unsigned long long>(
                result.load.bodyMismatches)));
    }
    // Invariant 3: non-2xx means deliberate shedding, nothing else.
    if (result.load.non2xx() != result.load.shed()) {
        result.failures.push_back(strfmt(
            "%llu non-2xx responses were not 429/503 sheds",
            static_cast<unsigned long long>(result.load.non2xx() -
                                            result.load.shed())));
    }
    if (result.load.requests == 0 && result.load.errors == 0) {
        result.failures.push_back("no traffic reached the service");
    }

    verifyStore(dir, result);

    if (keep)
        std::printf("  scratch kept: %s\n", dir.c_str());
    else
        removeScratchDir(dir);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    long long seeds = 10;
    long long duration = 5;
    long long base_seed = 1;
    long long connections = 2;
    long long retries = 6;
    long long jobs = 1;
    bool keep = false;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("pvar_chaos: %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--seeds") {
            seeds = intArg(arg, next(), 1);
        } else if (arg == "--duration") {
            duration = intArg(arg, next(), 1);
        } else if (arg == "--base-seed") {
            base_seed = intArg(arg, next(), 0);
        } else if (arg == "--connections") {
            connections = intArg(arg, next(), 1);
        } else if (arg == "--retries") {
            retries = intArg(arg, next(), 0);
        } else if (arg == "--jobs") {
            jobs = intArg(arg, next(), 1);
        } else if (arg == "--keep") {
            keep = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 1;
        }
    }
    if (!verbose)
        setLogLevel(LogLevel::Quiet);

    // The oracle: what the service MUST answer for kStudyBody when it
    // answers at all. Computed through the transport-free handler with
    // no plan installed — the same bytes `pvar_study --json` prints.
    std::string oracle;
    {
        ServiceConfig cfg;
        cfg.port = 0;
        cfg.study.jobs = static_cast<int>(jobs);
        StudyService reference(std::move(cfg));
        HttpRequest req;
        req.method = "POST";
        req.path = "/study";
        req.version = "HTTP/1.1";
        req.body = kStudyBody;
        HttpResponse resp = reference.handle(req);
        if (resp.status != 200)
            fatal("pvar_chaos: oracle request answered %d",
                  resp.status);
        oracle = resp.body;
    }

    int failed_seeds = 0;
    for (long long s = 0; s < seeds; ++s) {
        std::uint64_t seed = static_cast<std::uint64_t>(base_seed + s);
        SeedResult r = soakSeed(
            seed, static_cast<int>(duration),
            static_cast<int>(connections), static_cast<int>(retries),
            static_cast<int>(jobs), oracle, keep, verbose);
        std::printf(
            "seed %llu: %s  requests=%llu 2xx=%llu shed=%llu "
            "errors=%llu retries=%llu records=%llu%s%s\n",
            static_cast<unsigned long long>(seed),
            r.failures.empty() ? "ok  " : "FAIL",
            static_cast<unsigned long long>(r.load.requests),
            static_cast<unsigned long long>(r.load.requests -
                                            r.load.non2xx()),
            static_cast<unsigned long long>(r.load.shed()),
            static_cast<unsigned long long>(r.load.errors),
            static_cast<unsigned long long>(r.load.retries),
            static_cast<unsigned long long>(r.records),
            r.degraded ? " degraded" : "",
            r.truncated ? strfmt(" torn=%lluB",
                                 static_cast<unsigned long long>(
                                     r.truncated))
                              .c_str()
                        : "");
        for (const std::string &f : r.failures)
            std::printf("  invariant violated: %s\n", f.c_str());
        if (!r.failures.empty())
            ++failed_seeds;
        std::fflush(stdout);
    }

    if (failed_seeds != 0) {
        std::printf("%d/%lld seeds FAILED\n", failed_seeds, seeds);
        return 1;
    }
    std::printf("all %lld seeds passed\n", seeds);
    return 0;
}
