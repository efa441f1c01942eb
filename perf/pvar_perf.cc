/**
 * @file
 * pvar_perf: the benchmark harness behind perf/run.py.
 *
 *   pvar_perf --workload W [--seed S] [--seconds T] [--trace 0|1]
 *             [--smoke] [--out FILE] [--trace-file FILE]
 *             [--served PATH] [--golden PATH] [--scratch DIR]
 *
 * Runs one workload for T seconds and prints one JSON document: the
 * raw samples of every metric, the correctness ledger (operations
 * attempted and failed, named checks), and the host context. The
 * workloads, and why each exists, are in perf/README.md:
 *
 *   study_stepped  full Table II study, stepped reference solver
 *   study_fast     the same study on the analytic fast solver
 *   crowd          1M-die crowd study, cold then live-point warm
 *   resume         durable-cache study, cold then warm restart
 *   service        the real pvar_served under closed and open loop
 *
 * Every input comes from --seed: seed 0 is the paper's 26 °C chamber,
 * other seeds draw the ambient from 22-30 °C in 0.5 °C steps. With
 * --trace 1 the run alternates traced and untraced operations, writes
 * the spans to --trace-file, and then runs the layer replays.
 * --setup-only performs just a workload's set-up and exits; every run
 * times several such processes for setup_s.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "accubench/protocol.hh"
#include "device/registry.hh"
#include "probe.hh"
#include "report/json.hh"
#include "sampling/sampler.hh"
#include "service/http.hh"
#include "service/loadgen.hh"
#include "service/service.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "sim/strfmt.hh"
#include "store/durable_cache.hh"
#include "store/result_cache.hh"

namespace fs = std::filesystem;
using perf::nowNs;
using perf::Report;
using perf::SpanScope;
using perf::Tracer;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 15.0;
    bool trace = false;
    bool smoke = false;
    bool setupOnly = false;
    std::string out;
    std::string traceFile;
    std::string served;
    std::string golden;
    std::string scratch;
};

const char *const kWorkloads[] = {"study_stepped", "study_fast", "crowd",
                                  "resume", "service"};

/**
 * Set-up processes timed per run; setup_s is their median. A set-up is
 * a few milliseconds, mostly fork and exec, so it takes many.
 */
constexpr int kSetups = 21;

/** The chamber target a seed selects (seed 0: the paper's 26 °C). */
double
ambientForSeed(std::uint64_t seed)
{
    if (seed == 0)
        return 26.0;
    return 22.0 + 0.5 * static_cast<double>(pvar::Rng(seed).uniformInt(0, 16));
}

/** Mirror of `pvar_study --ambient`: target plus the cooldown margin. */
void
applyAmbient(pvar::StudyConfig &cfg, double ambient)
{
    cfg.thermabox.target = pvar::Celsius(ambient);
    cfg.accubench.cooldownTarget = pvar::Celsius(ambient + 6.0);
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/**
 * Reps every run makes even past its deadline: a traced run alternates
 * untraced and traced reps and needs one of each.
 */
int
minReps(const Options &o)
{
    return o.trace ? 2 : 1;
}

/** VmHWM of a process in MiB (self when pid is 0); 0 if unreadable. */
double
peakRssMb(pid_t pid = 0)
{
    std::ifstream f(pid ? pvar::strfmt("/proc/%d/status", pid)
                        : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
loadAverage1m()
{
    std::ifstream f("/proc/loadavg");
    double v = 0.0;
    f >> v;
    return v;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
}

/**
 * A child process that is always stopped and reaped: SIGTERM, then
 * SIGKILL after a grace period. The child also gets SIGTERM should
 * this process die first.
 */
class Child
{
  public:
    explicit Child(const std::vector<std::string> &argv)
    {
        std::vector<char *> args;
        for (const std::string &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        pid_t parent = ::getpid();
        _pid = ::fork();
        if (_pid == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            if (::getppid() != parent)
                ::_exit(127);
            ::execv(args[0], args.data());
            ::_exit(127);
        }
        if (_pid < 0)
            pvar::fatal("pvar_perf: fork failed: %s", std::strerror(errno));
    }

    ~Child() { stop(); }

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    pid_t pid() const { return _pid; }

    /** Wait for a normal exit; returns the exit status (-1 if none). */
    int
    wait()
    {
        if (_pid <= 0)
            return _status;
        int status = 0;
        while (::waitpid(_pid, &status, 0) < 0 && errno == EINTR) {
        }
        _pid = -1;
        _status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        return _status;
    }

    /** Terminate (if running) and reap. */
    int
    stop()
    {
        if (_pid <= 0)
            return _status;
        ::kill(_pid, SIGTERM);
        for (int i = 0; i < 200; ++i) {
            int status = 0;
            pid_t r = ::waitpid(_pid, &status, WNOHANG);
            if (r == _pid) {
                _pid = -1;
                _status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
                return _status;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        ::kill(_pid, SIGKILL);
        return wait();
    }

  private:
    pid_t _pid = -1;
    int _status = -1;
};

std::string
selfExe()
{
    return fs::read_symlink("/proc/self/exe").string();
}

/**
 * setup_s: wall time of kSetups fresh processes that each do only the
 * workload's set-up (exec, static init, registry, workload state).
 */
void
measureSetup(const Options &o, Report &report)
{
    std::vector<double> samples;
    std::uint64_t failed = 0;
    for (int i = 0; i < (o.smoke ? 1 : kSetups); ++i) {
        std::int64_t t0 = nowNs();
        Child child({selfExe(), "--workload", o.workload, "--seed",
                     std::to_string(o.seed), "--scratch", o.scratch,
                     "--setup-only"});
        failed += child.wait() != 0;
        samples.push_back(secondsSince(t0));
    }
    report.check("every set-up process exits 0", failed == 0,
                 pvar::strfmt("%llu failed",
                              static_cast<unsigned long long>(failed)),
                 failed);
    report.attempted(samples.size());
    report.add("setup_s", "s", samples);
}

/** Work units per second over a run's operations (total, not median). */
double
ratePerSecond(double units_per_op, const std::vector<double> &op_ms)
{
    double total_ms = 0.0;
    for (double ms : op_ms)
        total_ms += ms;
    return units_per_op * static_cast<double>(op_ms.size()) * 1e3 / total_ms;
}

/** (unit, mode) experiments a study ran: two per unit. */
std::size_t
experimentCount(const std::vector<pvar::SocStudy> &studies)
{
    std::size_t n = 0;
    for (const pvar::SocStudy &s : studies)
        n += 2 * s.units.size();
    return n;
}

/** Zero quarantined or non-Ok units anywhere in a study. */
bool
studyHealthy(const std::vector<pvar::SocStudy> &studies, std::string &why)
{
    for (const pvar::SocStudy &s : studies) {
        if (s.quarantinedUnits) {
            why = s.socName + " has quarantined units";
            return false;
        }
        for (const pvar::UnitOutcome &u : s.units) {
            if (u.quarantined ||
                u.unconstrainedStatus != pvar::ExperimentStatus::Ok ||
                u.fixedStatus != pvar::ExperimentStatus::Ok) {
                why = s.socName + ":" + u.unitId + " is not ok";
                return false;
            }
        }
    }
    return true;
}

/**
 * Self time of each layer the workload's spans cover, in ms and as a
 * share of all recorded self time; writes the spans to the trace file.
 */
void
reportSpans(const Options &o, Report &report,
            const std::vector<perf::Span> &spans)
{
    std::map<std::string, double> self = perf::layerSelfSeconds(spans);
    double total = 0.0;
    for (const auto &[layer, sec] : self)
        total += sec;
    for (const auto &[layer, sec] : self) {
        report.add(layer + ".self_share", "%", 100.0 * sec / total);
        report.add(layer + ".self_ms", "ms", sec * 1e3);
    }
    if (!o.traceFile.empty() && !perf::writeChromeTrace(o.traceFile, spans))
        report.check("trace file written", false, o.traceFile);
}

/** Traced over untraced median of the workload's operation (1 = free). */
void
reportOverhead(Report &report, const std::vector<double> &untraced,
               const std::vector<double> &traced)
{
    report.add("trace_overhead", "x",
               perf::median(traced) / perf::median(untraced));
}

// -- study_stepped / study_fast --------------------------------------------

/**
 * One full study per rep, no cache (cold_ms), then several re-runs of
 * the same study against a result cache the warm-up filled (warm_ms).
 * Gates: every output byte-identical to the first and to a jobs=1,
 * batch=1 reference; no quarantined or non-Ok unit.
 */
void
runStudyWorkload(const Options &o, pvar::SolverKind solver,
                 Report &report)
{
    pvar::StudyConfig cfg;
    cfg.iterations = o.smoke ? 1 : 5;
    cfg.solver = solver;
    cfg.jobs = pvar::hardwareJobs();
    applyAmbient(cfg, ambientForSeed(o.seed));
    const int warm_per_rep = o.smoke ? 1 : 5;

    pvar::ResultCache warm_cache(1024);
    cfg.cache = &warm_cache;
    std::vector<pvar::SocStudy> first_studies = pvar::runFullStudy(cfg);
    std::string first = pvar::toJson(first_studies);
    std::string why;
    report.check("no quarantined or non-ok unit",
                 studyHealthy(first_studies, why), why);
    const double experiments =
        static_cast<double>(experimentCount(first_studies));

    std::vector<double> cold, warm, cold_traced, per_study;
    std::uint64_t mismatches = 0, ops = 0;
    std::int64_t deadline = nowNs() + static_cast<std::int64_t>(
                                          o.seconds * 1e9);
    for (int rep = 0; rep < minReps(o) || nowNs() < deadline; ++rep) {
        bool traced = o.trace && rep % 2 == 1;
        Tracer::enable(traced);

        perf::TimedExperimentCache pass_through;
        cfg.cache = traced ? &pass_through : nullptr;
        Tracer::setOp(2 * rep + 1, "study.cold");
        std::int64_t t0 = nowNs();
        std::string out;
        {
            std::vector<pvar::SocStudy> s;
            {
                SpanScope span("accubench.study");
                s = pvar::runFullStudy(cfg);
            }
            SpanScope span("report.json");
            out = pvar::toJson(s);
        }
        (traced ? cold_traced : cold).push_back(secondsSince(t0) * 1e3);
        mismatches += out != first;
        ++ops;
        if (traced)
            per_study.push_back(static_cast<double>(
                pass_through.hits() + pass_through.misses()));

        perf::TimedExperimentCache warm_probe(&warm_cache);
        cfg.cache = traced ? static_cast<pvar::ExperimentCache *>(
                                 &warm_probe)
                           : &warm_cache;
        Tracer::setOp(2 * rep + 2, "study.warm");
        for (int w = 0; w < warm_per_rep; ++w) {
            t0 = nowNs();
            std::vector<pvar::SocStudy> s;
            {
                SpanScope span("accubench.study");
                s = pvar::runFullStudy(cfg);
            }
            {
                SpanScope span("report.json");
                out = pvar::toJson(s);
            }
            if (!traced)
                warm.push_back(secondsSince(t0) * 1e3);
            mismatches += out != first;
            ++ops;
        }
        Tracer::setOp(0, "");
        if (o.smoke)
            break;
    }
    Tracer::enable(false);
    report.add("peak_rss_mb", "MiB", peakRssMb());

    // Reference after timing: serial and unbatched.
    cfg.cache = nullptr;
    cfg.jobs = 1;
    cfg.batch = 1;
    bool ref_ok = pvar::toJson(pvar::runFullStudy(cfg)) == first;
    report.check("jobs=1 batch=1 reference matches", ref_ok);
    report.check("every rep byte-identical to the first", mismatches == 0,
                 pvar::strfmt("%llu mismatches",
                              static_cast<unsigned long long>(mismatches)),
                 mismatches);
    report.attempted(ops + 1);

    if (!o.trace) {
        report.add("cold_ms", "ms", cold);
        report.add("warm_ms", "ms", warm);
        report.add("throughput_per_s", "1/s",
                   ratePerSecond(experiments, cold));
        return;
    }

    std::vector<perf::Span> spans = Tracer::collect();
    reportSpans(o, report, spans);
    reportOverhead(report, cold, cold_traced);

    // Study-level detail from the cold ops' spans: the stepped path
    // computes one experiment per span, the batched path one cohort.
    std::map<std::uint64_t, double> study_ms, longest_ms;
    std::vector<double> experiment_ms, cohort_ms;
    double busy_ms = 0.0, wall_ms = 0.0;
    std::map<std::uint64_t, std::string> names = Tracer::opNames();
    for (const perf::Span &s : spans) {
        if (names[s.op] != "study.cold")
            continue;
        double ms = static_cast<double>(s.durNs) * 1e-6;
        std::string n = s.name;
        if (n == "accubench.study") {
            study_ms[s.op] += ms;
            wall_ms += ms;
        } else if (n == "accubench.experiment" || n == "accubench.cohort") {
            (n == "accubench.cohort" ? cohort_ms : experiment_ms)
                .push_back(ms);
            busy_ms += ms;
            longest_ms[s.op] = std::max(longest_ms[s.op], ms);
        }
    }
    std::vector<double> straggler;
    for (const auto &[op, ms] : study_ms)
        straggler.push_back(100.0 * longest_ms[op] / ms);
    report.add("sim.pool_busy_share", "%",
               100.0 * busy_ms / pvar::hardwareJobs() / wall_ms);
    report.add("accubench.experiments", "count", per_study);
    report.add("accubench.experiment_ms", "ms", experiment_ms);
    report.add("accubench.cohort_ms", "ms", cohort_ms);
    report.add("accubench.straggler_share", "%", straggler);
    perf::runLayerReplays(report, o.scratch);
}

// -- crowd ------------------------------------------------------------------

/**
 * The library's in-memory live-point cache behind a mutex. A crowd
 * round runs its cohorts on parallel threads that share one cache, and
 * MemoryLivePointCache does not lock its map. Unguarded, one of the
 * first runs with four cohorts per round never finished.
 */
class LockedLivePointCache : public pvar::LivePointCache
{
  public:
    bool
    fetch(const std::string &key_text, std::string &out) override
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _memory.fetch(key_text, out);
    }

    void
    store(const std::string &key_text, const std::string &value) override
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _memory.store(key_text, value);
    }

  private:
    std::mutex _mutex;
    pvar::MemoryLivePointCache _memory;
};

/**
 * A fresh population per rep: a cold crowd study that captures live
 * points, then a warm one that restores them. Gates: warm bytes equal
 * cold bytes; the first rep equals a jobs=1 reference without live
 * points.
 *
 * 64 strata make each round four width-16 cohorts, one per vCPU of a
 * 4-vCPU host. With 16 strata a round is one cohort on one thread, and
 * a run's median then follows whichever core that thread sat on: on a
 * shared host its rep times jumped between two levels 1.6x apart for
 * seconds at a time. Over ten seeds the 16-strata run medians spread
 * 0.25-0.33, the 64-strata ones 0.04-0.07 (perf/README.md, "Noise and
 * bounds").
 */
void
runCrowdWorkload(const Options &o, Report &report)
{
    pvar::CrowdStudyConfig cfg;
    cfg.population.socName = "SD-821";
    cfg.population.size = 1000000;
    cfg.strata = 64;
    cfg.minRounds = cfg.maxRounds = o.smoke ? 2 : 4;
    cfg.iterations = 1;
    cfg.solver = pvar::SolverKind::Fast;
    cfg.jobs = pvar::hardwareJobs();
    const double dies = static_cast<double>(cfg.strata * cfg.minRounds);

    std::uint64_t short_passes = 0;
    auto pass = [&](pvar::LivePointCache *cache, const char *op,
                    std::uint64_t op_id, std::string &out) {
        cfg.livePoints = cache;
        Tracer::setOp(op_id, op);
        std::int64_t t0 = nowNs();
        pvar::CrowdStudyResult r;
        {
            SpanScope span("sampling.crowd");
            r = pvar::runCrowdStudy(cfg);
        }
        {
            SpanScope span("report.crowd_json");
            out = pvar::crowdStudyJson(r);
        }
        Tracer::setOp(0, "");
        short_passes += r.sampled != dies;
        return secondsSince(t0) * 1e3;
    };

    // Every pass population, the warm-up's included, is a fresh draw.
    pvar::Rng population_seeds(o.seed);
    {
        cfg.population.seed = population_seeds.next();
        LockedLivePointCache memory;
        std::string a, b;
        pass(&memory, "crowd.warmup", 0, a);
        pass(&memory, "crowd.warmup", 0, b);
    }

    std::vector<double> cold, warm, cold_traced, fetch_us, store_us;
    std::uint64_t mismatches = 0, ops = 0, fetches = 0, hits = 0;
    double bytes = 0.0, stores = 0.0;
    std::string first;
    std::uint64_t first_seed = 0;
    std::int64_t deadline = nowNs() + static_cast<std::int64_t>(
                                          o.seconds * 1e9);
    for (int rep = 0; rep < minReps(o) || nowNs() < deadline; ++rep) {
        bool traced = o.trace && rep % 2 == 1;
        Tracer::enable(traced);
        cfg.population.seed = population_seeds.next();
        LockedLivePointCache memory;
        perf::TimedLivePointCache cold_probe(memory), warm_probe(memory);
        std::string c, w;
        (traced ? cold_traced : cold)
            .push_back(pass(traced ? &cold_probe : static_cast<
                                pvar::LivePointCache *>(&memory),
                            "crowd.cold", 2 * rep + 1, c));
        double warm_ms = pass(traced ? &warm_probe : static_cast<
                                  pvar::LivePointCache *>(&memory),
                              "crowd.warm", 2 * rep + 2, w);
        if (!traced)
            warm.push_back(warm_ms);
        mismatches += c != w;
        ops += 2;
        if (rep == 0) {
            first = c;
            first_seed = cfg.population.seed;
        }
        if (traced) {
            perf::TimedLivePointCache::Stats cs = cold_probe.stats();
            perf::TimedLivePointCache::Stats ws = warm_probe.stats();
            store_us.insert(store_us.end(), cs.storeUs.begin(),
                            cs.storeUs.end());
            fetch_us.insert(fetch_us.end(), ws.fetchUs.begin(),
                            ws.fetchUs.end());
            fetches += ws.fetches;
            hits += ws.hits;
            bytes += static_cast<double>(cs.bytes);
            stores += static_cast<double>(cs.stores);
        }
        if (o.smoke)
            break;
    }
    Tracer::enable(false);
    report.add("peak_rss_mb", "MiB", peakRssMb());

    cfg.population.seed = first_seed;
    cfg.jobs = 1;
    std::string ref;
    pass(nullptr, "crowd.reference", 0, ref);
    report.check("jobs=1 reference matches the first rep", ref == first);
    report.check("every pass sampled every die", short_passes == 0,
                 pvar::strfmt("%llu short passes",
                              static_cast<unsigned long long>(
                                  short_passes)),
                 short_passes);
    report.check("warm bytes equal cold bytes", mismatches == 0,
                 pvar::strfmt("%llu mismatches",
                              static_cast<unsigned long long>(mismatches)),
                 mismatches);
    report.attempted(ops + 1);

    if (!o.trace) {
        report.add("cold_ms", "ms", cold);
        report.add("warm_ms", "ms", warm);
        report.add("throughput_per_s", "1/s", ratePerSecond(dies, cold));
        report.add("crowd.warm_dies_per_s", "1/s", ratePerSecond(dies, warm));
        return;
    }
    reportSpans(o, report, Tracer::collect());
    reportOverhead(report, cold, cold_traced);
    report.add("sampling.sampled_dies", "count", dies);
    report.add("sampling.livepoint_hit_ratio", "%",
               fetches ? 100.0 * static_cast<double>(hits) /
                             static_cast<double>(fetches)
                       : 0.0);
    report.add("crowd.livepoint_fetch_us", "us", fetch_us);
    report.add("crowd.livepoint_store_us", "us", store_us);
    report.add("crowd.livepoint_bytes", "bytes",
               stores > 0.0 ? bytes / stores : 0.0);
    perf::runLayerReplays(report, o.scratch);
}

// -- resume -------------------------------------------------------------------

/**
 * Per rep, a fresh store directory: a cold pass (DurableCache + fast
 * Table II study, 1 iteration: compute, encode, append, fsync), then a
 * warm pass through a new DurableCache on the same directory
 * (recovery, index rebuild, one record read per experiment). Gates:
 * cold ≡ warm ≡ uncached, every warm experiment a store hit; at seed 0
 * the bytes equal the committed golden.
 */
void
runResumeWorkload(const Options &o, Report &report)
{
    pvar::StudyConfig cfg;
    cfg.iterations = 1;
    cfg.solver = pvar::SolverKind::Fast;
    cfg.jobs = pvar::hardwareJobs();
    applyAmbient(cfg, ambientForSeed(o.seed));

    std::vector<pvar::SocStudy> studies = pvar::runFullStudy(cfg);
    const std::size_t experiments = experimentCount(studies);
    std::string uncached = pvar::toJson(studies) + "\n";
    if (o.seed == 0) {
        bool have = !o.golden.empty() && fs::exists(o.golden);
        report.check("seed 0 matches the committed golden",
                     have && readFile(o.golden) == uncached,
                     have ? o.golden : "golden file not found");
    }

    struct Pass
    {
        double ms;
        std::string json;
        pvar::ExperimentStoreStats stats;
    };
    auto pass = [&](const std::string &dir, bool traced, const char *op,
                    std::uint64_t op_id) {
        Pass p;
        Tracer::setOp(op_id, op);
        std::int64_t t0 = nowNs();
        {
            std::unique_ptr<pvar::DurableCache> cache;
            {
                SpanScope span("store.open");
                cache = std::make_unique<pvar::DurableCache>(dir);
            }
            perf::TimedExperimentCache probe(cache.get());
            cfg.cache = traced ? static_cast<pvar::ExperimentCache *>(&probe)
                               : cache.get();
            std::vector<pvar::SocStudy> s;
            {
                SpanScope span("accubench.study");
                s = pvar::runFullStudy(cfg);
            }
            {
                SpanScope span("report.json");
                p.json = pvar::toJson(s) + "\n";
            }
            p.stats = cache->storeStats();
            cfg.cache = nullptr;
        }
        p.ms = secondsSince(t0) * 1e3;
        Tracer::setOp(0, "");
        return p;
    };

    fs::path root = fs::path(o.scratch) / "resume";
    std::vector<double> cold, warm, cold_traced, syncs, log_bytes;
    std::uint64_t mismatches = 0, bad_hits = 0, ops = 0;
    // One untimed warm-up rep, then timed reps until the deadline.
    std::int64_t deadline = 0;
    for (int rep = -1; rep < minReps(o) || nowNs() < deadline; ++rep) {
        if (rep == 0)
            deadline = nowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
        bool traced = o.trace && rep >= 0 && rep % 2 == 1;
        Tracer::enable(traced);
        fs::path dir = root / pvar::strfmt("rep-%d", rep + 1);
        fs::remove_all(dir);
        Pass c = pass(dir.string(), traced, "resume.cold", 2 * rep + 3);
        Pass w = pass(dir.string(), traced, "resume.warm", 2 * rep + 4);
        fs::remove_all(dir);
        mismatches += (c.json != uncached) + (w.json != uncached);
        bad_hits += w.stats.hits != experiments || w.stats.misses != 0;
        ops += 2;
        if (rep < 0)
            continue;
        (traced ? cold_traced : cold).push_back(c.ms);
        if (!traced)
            warm.push_back(w.ms);
        syncs.push_back(static_cast<double>(c.stats.syncs));
        log_bytes.push_back(static_cast<double>(c.stats.bytes));
        if (o.smoke)
            break;
    }
    Tracer::enable(false);
    fs::remove_all(root);
    report.add("peak_rss_mb", "MiB", peakRssMb());
    report.check("cold and warm bytes equal the uncached study",
                 mismatches == 0,
                 pvar::strfmt("%llu mismatches",
                              static_cast<unsigned long long>(mismatches)),
                 mismatches);
    report.check("warm pass: every experiment a store hit", bad_hits == 0,
                 pvar::strfmt("%llu bad reps",
                              static_cast<unsigned long long>(bad_hits)),
                 bad_hits);
    report.attempted(ops + 1);

    if (!o.trace) {
        report.add("cold_ms", "ms", cold);
        report.add("warm_ms", "ms", warm);
        report.add("throughput_per_s", "1/s",
                   ratePerSecond(static_cast<double>(experiments), cold));
        report.add("resume.syncs", "count", syncs);
        report.add("resume.log_bytes", "bytes", log_bytes);
        return;
    }
    reportSpans(o, report, Tracer::collect());
    reportOverhead(report, cold, cold_traced);
    perf::runLayerReplays(report, o.scratch);
}

// -- service -------------------------------------------------------------------

/** The service's registry units, "SOC:unit" ids. */
std::vector<std::string>
registryUnits()
{
    std::vector<std::string> ids;
    for (const pvar::RegistryEntry &e :
         pvar::DeviceRegistry::builtin().entries())
        for (const pvar::UnitCorner &u : e.units)
            ids.push_back(e.spec.socName + ":" + u.id);
    return ids;
}

std::string
hitBody(const std::string &unit)
{
    return pvar::strfmt(R"({"device":"%s","iterations":1})", unit.c_str());
}

std::string
missBody(const std::string &unit, double ambient)
{
    return pvar::strfmt(
        R"({"device":"%s","iterations":1,"solver":"fast","ambient":%.4f})",
        unit.c_str(), ambient);
}

pvar::HttpRequest
makeRequest(const std::string &method, const std::string &path,
            const std::string &body)
{
    pvar::HttpRequest req;
    req.method = method;
    req.path = path;
    req.version = "HTTP/1.1";
    req.body = body;
    return req;
}

/** A running pvar_served, ready once /healthz answered. */
struct Server
{
    std::unique_ptr<Child> child;
    int port = 0;
};

Server
startServer(const Options &o, int index, double &setup_sec)
{
    std::string port_file =
        (fs::path(o.scratch) / pvar::strfmt("port-%d", index)).string();
    fs::remove(port_file);
    std::int64_t t0 = nowNs();
    Server s;
    s.child = std::make_unique<Child>(std::vector<std::string>{
        o.served, "--port", "0", "--port-file", port_file, "--iterations",
        "1", "--quiet"});
    std::int64_t give_up = t0 + 30'000'000'000LL;
    while (nowNs() < give_up) {
        std::ifstream f(port_file);
        int port = 0;
        if (f >> port && port > 0) {
            std::string err;
            pvar::HttpClient client("127.0.0.1", port);
            pvar::HttpResponse resp;
            if (client.send("GET", "/healthz", "", true, err) &&
                client.readResponse(resp, err) && resp.status == 200) {
                s.port = port;
                break;
            }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    setup_sec = secondsSince(t0);
    return s;
}

/** The /healthz counters the service workload reports deltas of. */
struct Health
{
    double hits = 0, misses = 0, evictions = 0, rejected = 0, overload = 0,
           fdSheds = 0, reuses = 0, bytesOut = 0, served = 0;
};

Health
readHealth(int port)
{
    Health h;
    std::string err;
    pvar::HttpClient client("127.0.0.1", port);
    pvar::HttpResponse resp;
    if (!client.send("GET", "/healthz", "", true, err) ||
        !client.readResponse(resp, err))
        return h;
    pvar::JsonValue doc;
    if (!pvar::parseJson(resp.body, doc, err))
        return h;
    auto num = [&](const char *section, const char *key) {
        const pvar::JsonValue *s = doc.find(section);
        const pvar::JsonValue *v = s ? s->find(key) : nullptr;
        return v && v->isNumber() ? v->asNumber() : 0.0;
    };
    h.hits = num("cache", "hits");
    h.misses = num("cache", "misses");
    h.evictions = num("cache", "evictions");
    h.rejected = num("requests", "rejected");
    h.served = num("requests", "served");
    h.overload = num("server", "overload_closed");
    h.fdSheds = num("server", "fd_exhausted_sheds");
    h.reuses = num("server", "keepalive_reuses");
    h.bytesOut = num("server", "bytes_out");
    return h;
}

/** A rate step passes with no failed request and p99 within this. */
constexpr double kLimitMs = 20.0;

/**
 * The open-loop rate the gated latencies are measured at. A 4-vCPU
 * shared KVM guest serves 1000-2000 rps depending on co-tenant load,
 * and latency near saturation grows without bound, so the gate sits
 * at half the low end.
 */
constexpr double kReferenceRps = 500.0;

enum RequestClass
{
    kHit,
    kMiss,
    kDevices
};

/** What one open-loop step measured. */
struct StepResult
{
    std::vector<double> latencyMs[3]; ///< by RequestClass
    std::vector<double> allMs;
    std::vector<double> lagMs;
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;     ///< transport errors and non-200s
    std::uint64_t mismatches = 0; ///< 200 bodies that differ
    std::vector<std::pair<std::string, std::string>> missBodies;
};

/** 99th percentile (nearest rank below); 0 when empty. */
double
p99(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1))];
}

/** Request k of a run's mix. */
struct Request
{
    RequestClass cls;
    std::size_t unit; ///< registry unit (hits and misses)
    std::string method;
    std::string path;
    std::string body;
};

/**
 * The service's seeded request mix, a pure function of (seed, k) so
 * that generator threads can take requests in any order: 85% cache-hit
 * POST /study for a registry unit, 10% GET /devices, 5% POST /study on
 * the fast solver at an ambient that no other request among 20000
 * consecutive ones uses (a miss).
 */
Request
requestFor(std::uint64_t seed, std::uint64_t k,
           const std::vector<std::string> &units)
{
    pvar::Rng rng = pvar::Rng(seed).fork(k);
    std::int64_t r = rng.uniformInt(0, 99);
    Request q;
    q.cls = r < 85 ? kHit : r < 95 ? kDevices : kMiss;
    q.unit = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(units.size()) - 1));
    q.method = q.cls == kDevices ? "GET" : "POST";
    q.path = q.cls == kDevices ? "/devices" : "/study";
    if (q.cls == kHit)
        q.body = hitBody(units[q.unit]);
    else if (q.cls == kMiss)
        q.body = missBody(units[q.unit],
                          22.0 + 0.0004 * static_cast<double>(
                                              (seed + k) % 20000));
    return q;
}

/**
 * Open loop at @p rate requests/s for @p seconds over @p conns
 * keep-alive connections: request k is due at start + k/rate, and its
 * latency runs from that due time, so a stall counts against every
 * request it delays. 200 bodies are checked against @p hit_refs /
 * @p devices_ref; miss bodies are kept for checking afterwards.
 */
StepResult
openLoop(int port, double rate, double seconds, int conns,
         std::uint64_t seed, std::uint64_t k_base,
         const std::vector<std::string> &units,
         const std::vector<std::string> &hit_refs,
         const std::string &devices_ref)
{
    StepResult out;
    std::mutex mutex;
    std::atomic<std::uint64_t> next{0};
    const std::int64_t start = nowNs() + 2'000'000; // 2 ms lead
    const auto total = static_cast<std::uint64_t>(rate * seconds);
    const double period_ns = 1e9 / rate;

    auto worker = [&]() {
        pvar::HttpClient client("127.0.0.1", port);
        StepResult local;
        for (;;) {
            std::uint64_t i = next.fetch_add(1);
            if (i >= total)
                break;
            std::int64_t due =
                start + static_cast<std::int64_t>(period_ns * i);
            std::int64_t now = nowNs();
            if (due > now)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now));
            Request q = requestFor(seed, k_base + i, units);
            std::int64_t sent = nowNs();
            pvar::HttpResponse resp;
            std::string err;
            bool ok;
            {
                SpanScope span("service.request");
                ok = client.send(q.method, q.path, q.body, false, err) &&
                     client.readResponse(resp, err);
            }
            std::int64_t done = nowNs();
            ++local.sent;
            if (!ok) {
                client.close();
                ++local.failed;
                continue;
            }
            if (resp.status != 200) {
                ++local.failed;
                continue;
            }
            double ms = static_cast<double>(done - due) * 1e-6;
            local.latencyMs[q.cls].push_back(ms);
            local.allMs.push_back(ms);
            local.lagMs.push_back(static_cast<double>(sent - due) * 1e-6);
            if (q.cls == kHit)
                local.mismatches += resp.body != hit_refs[q.unit];
            else if (q.cls == kDevices)
                local.mismatches += resp.body != devices_ref;
            else
                local.missBodies.emplace_back(q.body, resp.body);
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (int c = 0; c < 3; ++c)
            out.latencyMs[c].insert(out.latencyMs[c].end(),
                                    local.latencyMs[c].begin(),
                                    local.latencyMs[c].end());
        out.allMs.insert(out.allMs.end(), local.allMs.begin(),
                         local.allMs.end());
        out.lagMs.insert(out.lagMs.end(), local.lagMs.begin(),
                         local.lagMs.end());
        out.sent += local.sent;
        out.failed += local.failed;
        out.mismatches += local.mismatches;
        for (auto &m : local.missBodies)
            out.missBodies.push_back(std::move(m));
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    return out;
}

/**
 * The real pvar_served: set-up is spawn until /healthz answers. The
 * 21 registry units are primed (untimed), then (a) a closed loop on a
 * cached one-unit study, 2 keep-alive connections; (b) the open-loop
 * mix at the reference rate; (c) a rate ladder up from there.
 * Gate: every 200 body equals StudyService::handle() for its request.
 */
void
runServiceWorkload(const Options &o, Report &report)
{
    const int conns = std::min(4, pvar::hardwareJobs());
    const std::vector<std::string> units = registryUnits();

    std::vector<double> setups;
    Server server;
    for (int i = 0; i < (o.smoke ? 1 : kSetups); ++i) {
        double sec = 0.0;
        Server s = startServer(o, i, sec);
        setups.push_back(sec);
        if (!s.port) {
            report.check("pvar_served answers /healthz", false, o.served);
            return;
        }
        server = std::move(s); // stops the previous one
    }
    report.add("setup_s", "s", setups);
    const int port = server.port;

    // Reference bytes from an unstarted service with pvar_served's
    // configuration; serial studies so the fan-out below stays within
    // nproc threads (bytes are jobs-invariant).
    pvar::ServiceConfig ref_cfg;
    ref_cfg.study.iterations = 1;
    ref_cfg.study.jobs = 1;
    pvar::StudyService reference(ref_cfg);
    std::vector<std::string> hit_refs(units.size());
    pvar::parallelFor(units.size(), pvar::hardwareJobs(),
                      [&](std::size_t i) {
                          hit_refs[i] =
                              reference
                                  .handle(makeRequest("POST", "/study",
                                                      hitBody(units[i])))
                                  .body;
                      });
    const std::string devices_ref =
        reference.handle(makeRequest("GET", "/devices", "")).body;

    std::uint64_t attempted = 0, failed = 0, mismatches = 0;
    {
        pvar::HttpClient client("127.0.0.1", port);
        for (std::size_t i = 0; i < units.size(); ++i) {
            pvar::HttpResponse resp;
            std::string err;
            bool ok = client.send("POST", "/study", hitBody(units[i]), false,
                                  err) &&
                      client.readResponse(resp, err);
            ++attempted;
            failed += !ok || resp.status != 200;
            mismatches += ok && resp.body != hit_refs[i];
        }
    }

    std::vector<std::pair<std::string, std::string>> miss_bodies;
    auto absorb = [&](StepResult &r, bool count_failures) {
        attempted += r.sent;
        if (count_failures)
            failed += r.failed;
        mismatches += r.mismatches;
        for (auto &m : r.missBodies)
            miss_bodies.push_back(std::move(m));
        r.missBodies.clear();
    };

    const double t = o.smoke ? 2.0 : o.seconds;
    // Steps continue one request sequence, so miss ambients stay unique.
    std::uint64_t k_base = 0;
    auto step = [&](double rate, double seconds) {
        StepResult r = openLoop(port, rate, seconds, conns, o.seed, k_base,
                                units, hit_refs, devices_ref);
        k_base += r.sent;
        return r;
    };
    if (!o.trace) {
        // (a) closed loop, the old BENCH_service recipe.
        pvar::LoadGenConfig lg;
        lg.port = port;
        lg.method = "POST";
        lg.path = "/study";
        lg.body = hitBody("SD-805:unit-b");
        lg.expectBody =
            hit_refs[std::find(units.begin(), units.end(), "SD-805:unit-b") -
                     units.begin()];
        lg.connections = 2;
        lg.warmupMs = 100;
        lg.durationMs = static_cast<int>(t * 1000 * 0.04);
        std::vector<double> rps;
        for (int i = 0; i < (o.smoke ? 1 : 5); ++i) {
            pvar::LoadGenReport r = pvar::runLoadGen(lg);
            rps.push_back(r.rps);
            attempted += r.requests + r.warmup;
            failed += r.errors + r.non2xx();
            mismatches += r.bodyMismatches;
        }
        report.add("throughput_per_s", "1/s", rps);
    }

    // (b) the reference step, with /healthz deltas around it.
    Health before = readHealth(port);
    double ref_sec = o.trace ? 0.3 * t : 0.45 * t;
    StepResult ref = step(kReferenceRps, ref_sec);
    Health after = readHealth(port);
    bool ref_pass = ref.failed == 0 && p99(ref.allMs) <= kLimitMs;
    absorb(ref, true);

    double requests = after.served - before.served;
    report.add("service.cache_hit_ratio", "%",
               100.0 * (after.hits - before.hits) /
                   std::max(1.0, (after.hits - before.hits) +
                                     (after.misses - before.misses)));
    report.add("service.cache_evictions", "count",
               after.evictions - before.evictions);
    report.add("service.shed", "count",
               (after.rejected - before.rejected) +
                   (after.overload - before.overload) +
                   (after.fdSheds - before.fdSheds));
    report.add("service.reuse_ratio", "%",
               100.0 * (after.reuses - before.reuses) /
                   std::max(1.0, requests));
    report.add("service.bytes_out_per_req", "bytes",
               (after.bytesOut - before.bytesOut) / std::max(1.0, requests));

    if (o.trace) {
        Tracer::enable(true);
        Tracer::setOp(1, "service.request");
        StepResult traced = step(kReferenceRps, ref_sec);
        Tracer::enable(false);
        absorb(traced, true);
        reportOverhead(report, ref.allMs, traced.allMs);
        reportSpans(o, report, Tracer::collect());
    }

    report.add("service.hit_ms", "ms", ref.latencyMs[kHit]);
    report.add("service.miss_ms", "ms", ref.latencyMs[kMiss]);
    report.add("service.devices_ms", "ms", ref.latencyMs[kDevices]);
    report.add("service.all_ms", "ms", ref.allMs);
    report.add("service.gen_lag_ms", "ms", ref.lagMs);
    if (!o.trace) {
        report.add("cold_ms", "ms", ref.latencyMs[kMiss]);
        report.add("warm_ms", "ms", ref.latencyMs[kHit]);
    }

    // (c) the ladder: up from the reference until a step fails, or down.
    if (!o.trace && !o.smoke) {
        double max_rps = ref_pass ? kReferenceRps : 0.0;
        std::vector<double> ladder =
            ref_pass ? std::vector<double>{1000, 1400, 2000, 2800}
                     : std::vector<double>{350, 250};
        for (double rate : ladder) {
            StepResult r = step(rate, 0.06 * t);
            bool pass = r.failed == 0 && p99(r.allMs) <= kLimitMs;
            report.add(pvar::strfmt("service.step_%d_p99_ms",
                                    static_cast<int>(rate)),
                       "ms", p99(r.allMs));
            // Above kLimitMs / 2 the generator, not the service, was late.
            report.add(pvar::strfmt("service.step_%d_lag_p99_ms",
                                    static_cast<int>(rate)),
                       "ms", p99(r.lagMs));
            absorb(r, false);
            if (pass)
                max_rps = std::max(max_rps, rate);
            // Up the ladder until a step fails; down it until one passes.
            if (pass != ref_pass)
                break;
        }
        report.add("service.max_rps", "1/s", max_rps);
    }

    report.add("peak_rss_mb", "MiB", peakRssMb(server.child->pid()));
    int exit_status = server.child->stop();
    report.check("pvar_served drains and exits 0 on SIGTERM",
                 exit_status == 0,
                 pvar::strfmt("exit status %d", exit_status));

    // Every miss body against handle() for the same request.
    std::vector<char> bad(miss_bodies.size(), 0);
    pvar::parallelFor(miss_bodies.size(), pvar::hardwareJobs(),
                      [&](std::size_t i) {
                          bad[i] = reference
                                       .handle(makeRequest(
                                           "POST", "/study",
                                           miss_bodies[i].first))
                                       .body != miss_bodies[i].second;
                      });
    for (char b : bad)
        mismatches += b;

    report.check("every 200 body equals handle() for its request",
                 mismatches == 0,
                 pvar::strfmt("%llu mismatches",
                              static_cast<unsigned long long>(mismatches)),
                 mismatches);
    report.check("no failed request outside the ladder", failed == 0,
                 pvar::strfmt("%llu failed",
                              static_cast<unsigned long long>(failed)),
                 failed);
    report.attempted(attempted);
    if (o.trace)
        perf::runLayerReplays(report, o.scratch);
}

// -- set-up only ----------------------------------------------------------------

/** What a workload does before its first operation, and nothing else. */
void
setupOnly(const Options &o)
{
    const pvar::DeviceRegistry &registry = pvar::DeviceRegistry::builtin();
    (void)registry;
    (void)pvar::hardwareJobs();
    if (o.workload == "resume") {
        fs::path dir = fs::path(o.scratch) /
                       pvar::strfmt("setup-%d", static_cast<int>(::getpid()));
        fs::remove_all(dir);
        {
            pvar::DurableCache cache(dir.string());
        }
        fs::remove_all(dir);
    } else if (o.workload == "crowd") {
        pvar::CrowdStudyConfig cfg;
        (void)pvar::crowdDie(cfg.population, 0);
    } else {
        pvar::ResultCache cache(1024);
        (void)cache;
    }
}

// -- main ---------------------------------------------------------------------

void
usage()
{
    std::printf(
        "pvar_perf: the libpvar benchmark harness (see perf/README.md)\n"
        "\n"
        "  --workload W      study_stepped | study_fast | crowd | resume |\n"
        "                    service\n"
        "  --seed S          input seed (default 0: the paper's 26 C)\n"
        "  --seconds T       measured time (default 15)\n"
        "  --trace 0|1       1: traced ops, spans, layer replays\n"
        "  --smoke           seconds-long run, same checks\n"
        "  --out FILE        write the JSON document to FILE\n"
        "  --trace-file F    Chrome trace-event JSON of the spans\n"
        "  --served PATH     the pvar_served binary (service)\n"
        "  --golden PATH     seed-0 golden study JSON (resume)\n"
        "  --scratch DIR     directory for stores and port files\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                pvar::fatal("pvar_perf: %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = next();
        } else if (arg == "--seed") {
            long long v = 0;
            std::string text = next();
            if (!pvar::parseIntStrict(text.c_str(), v) || v < 0)
                pvar::fatal("pvar_perf: --seed needs an integer >= 0");
            o.seed = static_cast<std::uint64_t>(v);
        } else if (arg == "--seconds") {
            std::string text = next();
            if (!pvar::parseDoubleStrict(text.c_str(), o.seconds) ||
                o.seconds <= 0.0)
                pvar::fatal("pvar_perf: --seconds needs a positive number");
        } else if (arg == "--trace") {
            std::string text = next();
            if (text != "0" && text != "1")
                pvar::fatal("pvar_perf: --trace must be 0 or 1");
            o.trace = text == "1";
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--setup-only") {
            o.setupOnly = true;
        } else if (arg == "--out") {
            o.out = next();
        } else if (arg == "--trace-file") {
            o.traceFile = next();
        } else if (arg == "--served") {
            o.served = next();
        } else if (arg == "--golden") {
            o.golden = next();
        } else if (arg == "--scratch") {
            o.scratch = next();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "pvar_perf: unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  o.workload) == std::end(kWorkloads)) {
        std::fprintf(stderr, "pvar_perf: unknown workload '%s'\n",
                     o.workload.c_str());
        usage();
        return 2;
    }
    pvar::setLogLevel(pvar::LogLevel::Quiet);
    fs::path exe_dir = fs::path(selfExe()).parent_path();
    if (o.scratch.empty())
        o.scratch = (exe_dir / "scratch").string();
    if (o.served.empty())
        o.served = (exe_dir / "pvar_served").string();
    fs::create_directories(o.scratch);

    if (o.setupOnly) {
        setupOnly(o);
        return 0;
    }

    Report report;
    if (o.workload != "service")
        measureSetup(o, report);
    if (o.workload == "study_stepped")
        runStudyWorkload(o, pvar::SolverKind::Stepped, report);
    else if (o.workload == "study_fast")
        runStudyWorkload(o, pvar::SolverKind::Fast, report);
    else if (o.workload == "crowd")
        runCrowdWorkload(o, report);
    else if (o.workload == "resume")
        runResumeWorkload(o, report);
    else
        runServiceWorkload(o, report);

    report.add("host.hardware_jobs", "count",
               static_cast<double>(pvar::hardwareJobs()));
    report.add("host.loadavg_1m", "load", loadAverage1m());

    std::string doc = report.json(o.workload, o.seed, o.trace) + "\n";
    if (o.out.empty()) {
        std::fputs(doc.c_str(), stdout);
    } else {
        std::ofstream f(o.out);
        f << doc;
        if (!f) {
            std::fprintf(stderr, "pvar_perf: cannot write '%s'\n",
                         o.out.c_str());
            return 1;
        }
    }
    return report.correct() ? 0 : 1;
}
