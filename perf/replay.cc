/**
 * @file
 * Layer replays: each layer's public entry points timed on fixed
 * inputs, after a traced run's workload. The inputs do not depend on
 * the workload or the seed, so a layer metric moves only when that
 * layer's code does.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "accubench/batch.hh"
#include "device/fleet.hh"
#include "power/monsoon.hh"
#include "probe.hh"
#include "report/json.hh"
#include "sampling/population.hh"
#include "sampling/sampler.hh"
#include "service/http.hh"
#include "service/service.hh"
#include "sim/parallel.hh"
#include "sim/strfmt.hh"
#include "store/codec.hh"
#include "store/durable_cache.hh"
#include "store/result_cache.hh"
#include "thermal/package.hh"

namespace perf
{
namespace
{

using pvar::Celsius;
using pvar::Time;

/** Keeps the optimizer from dropping a loop whose result is unused. */
volatile double g_sink = 0.0;

double
elapsedSec(std::int64_t since_ns)
{
    return static_cast<double>(nowNs() - since_ns) * 1e-9;
}

/** The crowd population the cohort and tick replays draw dies from. */
pvar::CrowdPopulationConfig
replayPopulation()
{
    pvar::CrowdPopulationConfig pop;
    pop.socName = "SD-821";
    pop.size = 1000000;
    pop.seed = 7;
    return pop;
}

/** Die i of 64, spread evenly over the corner-sorted population. */
pvar::CrowdDie
replayDie(std::size_t i)
{
    pvar::CrowdPopulationConfig pop = replayPopulation();
    return pvar::crowdDie(pop, (2 * i + 1) * pop.size / 128);
}

/** sim: full fast study, jobs=1 versus jobs=nproc. */
void
replayParallelSpeedup(Report &report)
{
    pvar::StudyConfig cfg;
    cfg.iterations = 1;
    cfg.solver = pvar::SolverKind::Fast;
    std::vector<double> serial, parallel;
    for (int rep = 0; rep < 3; ++rep) {
        cfg.jobs = 1;
        std::int64_t t0 = nowNs();
        pvar::runFullStudy(cfg);
        serial.push_back(elapsedSec(t0));
        cfg.jobs = pvar::hardwareJobs();
        t0 = nowNs();
        pvar::runFullStudy(cfg);
        parallel.push_back(elapsedSec(t0));
    }
    report.add("sim.parallel_speedup", "x",
               median(serial) / median(parallel));
}

/** accubench: runExperimentCohort throughput at widths 1, 16, 64. */
void
replayCohorts(Report &report)
{
    pvar::CrowdStudyConfig crowd;
    for (std::size_t width : {1, 16, 64}) {
        double sec = 0.0;
        for (std::size_t begin = 0; begin < 64; begin += width) {
            std::vector<std::unique_ptr<pvar::Device>> devices;
            std::vector<pvar::CohortTask> tasks;
            for (std::size_t i = begin; i < begin + width; ++i) {
                pvar::CrowdDie die = replayDie(i);
                devices.push_back(
                    pvar::makeUnitForSoc("SD-821", die.corner));
                pvar::CohortTask t;
                t.device = devices.back().get();
                t.cfg = pvar::crowdDieExperiment(crowd, die);
                tasks.push_back(t);
            }
            std::int64_t t0 = nowNs();
            pvar::runExperimentCohort(tasks);
            sec += elapsedSec(t0);
        }
        report.add(pvar::strfmt("accubench.cohort_dies_per_s.b%zu", width),
                   "1/s", 64.0 / sec);
    }
}

/** A device wired like an UNCONSTRAINED run, workload started. */
std::unique_ptr<pvar::Device>
runningDevice(std::size_t i, pvar::SolverKind solver,
              pvar::Monsoon &supply, pvar::Trace &trace)
{
    auto dev = pvar::makeUnitForSoc("SD-821", replayDie(i).corner);
    dev->setThermalSolver(solver);
    dev->attachExternalSupply(&supply);
    dev->setPerformanceMode();
    dev->resetExperimentState();
    dev->setSuspendAllowed(false);
    dev->soakTo(Celsius(26.0));
    dev->attachTrace(&trace);
    dev->acquireWakelock();
    dev->startWorkload(pvar::CpuIntensiveWorkload{});
    return dev;
}

/**
 * device + thermal: the staged fast tick on a 16-die cohort, driven in
 * the order device.hh documents (fastTickBegin, then per segment:
 * fastSegmentAdvance, a batched thermal jump, fastSegmentService),
 * with each stage timed across the cohort.
 */
void
replayStagedTick(Report &report)
{
    constexpr std::size_t kDies = 16;
    const Time horizon = Time::sec(240);
    const Time dt = Time::msec(10);

    pvar::Monsoon supply(pvar::Volts(3.85));
    std::vector<pvar::Trace> traces(kDies);
    std::vector<std::unique_ptr<pvar::Device>> devs;
    std::vector<Time> now(kDies, Time::zero());
    for (std::size_t i = 0; i < kDies; ++i) {
        devs.push_back(
            runningDevice(i, pvar::SolverKind::Fast, supply, traces[i]));
        if (i == 0)
            devs[0]->packageNetwork().fastReady();
        else
            devs[i]->packageNetwork().adoptFastSolver(
                devs[0]->packageNetwork());
    }

    std::int64_t closure_ns = 0, jump_ns = 0, service_ns = 0;
    std::uint64_t segments = 0, jumps = 0;
    std::vector<pvar::Device *> staged, pending, rest;
    std::vector<pvar::ThermalNetwork *> nets;
    for (;;) {
        staged.clear();
        for (std::size_t i = 0; i < kDies; ++i) {
            if (now[i] >= horizon)
                continue;
            Time target = std::max(now[i] + dt,
                                   devs[i]->nextBoundary(now[i], dt));
            target = std::min(target, horizon);
            devs[i]->fastTickBegin(target, target - now[i]);
            now[i] = target;
            staged.push_back(devs[i].get());
        }
        if (staged.empty())
            break;
        while (!staged.empty()) {
            pending.clear();
            std::int64_t t0 = nowNs();
            for (pvar::Device *d : staged)
                if (d->fastSegmentAdvance())
                    pending.push_back(d);
            std::int64_t t1 = nowNs();
            jumps += pending.size();
            while (!pending.empty()) {
                Time span = pending.front()->fastSegmentSpan();
                nets.clear();
                rest.clear();
                for (pvar::Device *d : pending) {
                    if (d->fastSegmentSpan() == span)
                        nets.push_back(&d->packageNetwork());
                    else
                        rest.push_back(d);
                }
                pvar::ThermalNetwork::fastAdvanceBatch(nets.data(),
                                                       nets.size(), span);
                pending.swap(rest);
            }
            std::int64_t t2 = nowNs();
            for (pvar::Device *d : staged)
                d->fastSegmentService();
            std::int64_t t3 = nowNs();
            closure_ns += t1 - t0;
            jump_ns += t2 - t1;
            service_ns += t3 - t2;
            segments += staged.size();
            staged.erase(std::remove_if(staged.begin(), staged.end(),
                                        [](pvar::Device *d) {
                                            return d->fastTickDone();
                                        }),
                         staged.end());
        }
    }

    double total = static_cast<double>(closure_ns + jump_ns + service_ns);
    double segs = static_cast<double>(segments);
    report.add("device.closure_ns", "ns", closure_ns / segs);
    report.add("device.service_ns", "ns", service_ns / segs);
    report.add("device.closure_share", "%", 100.0 * closure_ns / total);
    report.add("device.service_share", "%", 100.0 * service_ns / total);
    report.add("device.segments_per_sim_s", "count",
               segs / (kDies * horizon.toSec()));
    report.add("thermal.jump_ns_per_die", "ns",
               static_cast<double>(jump_ns) / static_cast<double>(jumps));
    report.add("thermal.jump_share", "%", 100.0 * jump_ns / total);
}

/**
 * device + thermal, stepped: Device::tick at the 10 ms base step net
 * of ThermalNetwork::step on a second instance of the same package.
 */
void
replaySteppedTick(Report &report)
{
    const Time dt = Time::msec(10);
    constexpr int kTicks = 3000;
    pvar::Monsoon supply(pvar::Volts(3.85));
    pvar::Trace trace;
    auto dev = runningDevice(0, pvar::SolverKind::Stepped, supply, trace);

    std::vector<double> tick_us, step_us;
    Time now = Time::zero();
    for (int batch = 0; batch < 10; ++batch) {
        std::int64_t t0 = nowNs();
        for (int k = 0; k < kTicks / 10; ++k) {
            now = now + dt;
            dev->tick(now, dt);
        }
        tick_us.push_back(elapsedSec(t0) * 1e6 / (kTicks / 10));
    }

    pvar::PhonePackage pkg(dev->config().package, Celsius(26.0));
    pkg.setCpuPower(pvar::Watts(3.0));
    pkg.setBoardPower(pvar::Watts(0.1));
    for (int batch = 0; batch < 10; ++batch) {
        std::int64_t t0 = nowNs();
        for (int k = 0; k < kTicks; ++k)
            pkg.step(dt);
        step_us.push_back(elapsedSec(t0) * 1e6 / kTicks);
    }
    g_sink = g_sink + pkg.dieTemp().value();

    double step = median(step_us);
    report.add("thermal.step_us", "us", step_us);
    report.add("device.tick_us", "us", median(tick_us) - step);

    // silicon + power: the two closures every power evaluation runs.
    const pvar::Die &die = dev->soc().die();
    std::vector<double> leak_ns, current_ns;
    constexpr int kCalls = 20000;
    for (int batch = 0; batch < 10; ++batch) {
        double acc = 0.0;
        std::int64_t t0 = nowNs();
        for (int k = 0; k < kCalls; ++k)
            acc += die.leakagePower(pvar::Volts(0.80 + 1e-6 * k),
                                    Celsius(40.0 + 0.002 * k))
                       .value();
        leak_ns.push_back(elapsedSec(t0) * 1e9 / kCalls);
        t0 = nowNs();
        for (int k = 0; k < kCalls; ++k)
            acc += dev->battery()
                       .operatingCurrent(pvar::Watts(0.5 + 2e-4 * k))
                       .value();
        current_ns.push_back(elapsedSec(t0) * 1e9 / kCalls);
        g_sink = g_sink + acc;
    }
    report.add("silicon.leakage_ns", "ns", leak_ns);
    report.add("power.operating_current_ns", "ns", current_ns);

    std::vector<double> build_us;
    for (std::size_t i = 0; i < 64; ++i) {
        pvar::UnitCorner corner = replayDie(i).corner;
        std::int64_t t0 = nowNs();
        auto built = pvar::makeUnitForSoc("SD-821", corner);
        build_us.push_back(elapsedSec(t0) * 1e6);
        g_sink = g_sink + built->lastPower().value();
    }
    report.add("device.build_us", "us", build_us);
}

/** store + report: codec, key text, and a durable round trip. */
void
replayStore(Report &report, const std::string &scratch_dir)
{
    pvar::StudyConfig cfg;
    cfg.iterations = 1;
    cfg.solver = pvar::SolverKind::Fast;
    cfg.jobs = pvar::hardwareJobs();
    TimedExperimentCache capture;
    capture.keepResults(true);
    cfg.cache = &capture;
    std::vector<pvar::SocStudy> studies = pvar::runFullStudy(cfg);
    std::vector<TimedExperimentCache::Kept> kept = capture.kept();

    std::vector<double> key_us, encode_us, decode_us, key_bytes,
        record_bytes;
    for (int rep = 0; rep < 5; ++rep) {
        for (const auto &k : kept) {
            std::int64_t t0 = nowNs();
            std::string key =
                pvar::experimentKeyText(*k.entry, k.unitIndex, k.cfg);
            key_us.push_back(elapsedSec(t0) * 1e6);
            t0 = nowNs();
            std::string bytes = pvar::encodeExperimentResult(k.result);
            encode_us.push_back(elapsedSec(t0) * 1e6);
            pvar::ExperimentResult back;
            t0 = nowNs();
            bool ok = pvar::decodeExperimentResult(bytes, back);
            decode_us.push_back(elapsedSec(t0) * 1e6);
            if (!ok)
                std::fprintf(stderr, "pvar_perf: replay decode failed\n");
            if (rep == 0) {
                key_bytes.push_back(static_cast<double>(key.size()));
                record_bytes.push_back(static_cast<double>(bytes.size()));
            }
        }
    }
    report.add("store.key_us", "us", key_us);
    report.add("store.key_bytes", "bytes", key_bytes);
    report.add("store.encode_us", "us", encode_us);
    report.add("store.decode_us", "us", decode_us);
    report.add("store.record_bytes", "bytes", record_bytes);

    std::filesystem::path dir =
        std::filesystem::path(scratch_dir) / "replay-store";
    std::filesystem::remove_all(dir);
    std::vector<double> insert_us, lookup_us;
    double flush_ms = 0.0, open_ms = 0.0;
    {
        pvar::DurableCache cold(dir.string());
        for (const auto &k : kept) {
            std::int64_t t0 = nowNs();
            cold.insert(*k.entry, k.unitIndex, k.cfg, k.result);
            insert_us.push_back(elapsedSec(t0) * 1e6);
        }
        std::int64_t t0 = nowNs();
        cold.flushPending();
        flush_ms = elapsedSec(t0) * 1e3;
    }
    {
        std::int64_t t0 = nowNs();
        pvar::DurableCache warm(dir.string());
        open_ms = elapsedSec(t0) * 1e3;
        for (const auto &k : kept) {
            pvar::ExperimentResult out;
            t0 = nowNs();
            warm.lookup(*k.entry, k.unitIndex, k.cfg, out);
            lookup_us.push_back(elapsedSec(t0) * 1e6);
        }
    }
    std::filesystem::remove_all(dir);
    report.add("store.insert_us", "us", insert_us);
    report.add("store.flush_ms", "ms", flush_ms);
    report.add("store.open_ms", "ms", open_ms);
    report.add("store.lookup_us", "us", lookup_us);

    std::vector<double> study_ms, unit_us;
    pvar::SocStudy one = studies.front();
    one.units.resize(1);
    std::size_t study_bytes = 0;
    for (int rep = 0; rep < 20; ++rep) {
        std::int64_t t0 = nowNs();
        study_bytes = pvar::toJson(studies).size();
        study_ms.push_back(elapsedSec(t0) * 1e3);
        t0 = nowNs();
        g_sink = g_sink + static_cast<double>(pvar::toJson(one).size());
        unit_us.push_back(elapsedSec(t0) * 1e6);
    }
    report.add("report.study_json_ms", "ms", study_ms);
    report.add("report.study_json_bytes", "bytes",
               static_cast<double>(study_bytes));
    report.add("report.unit_json_us", "us", unit_us);
}

/** sampling: live-point capture and restore on a 32-die crowd. */
void
replayLivePoints(Report &report)
{
    pvar::CrowdStudyConfig cfg;
    cfg.population = replayPopulation();
    cfg.minRounds = 2;
    cfg.maxRounds = 2;
    pvar::MemoryLivePointCache memory;
    TimedLivePointCache cold(memory);
    cfg.livePoints = &cold;
    pvar::runCrowdStudy(cfg);
    TimedLivePointCache warm(memory);
    cfg.livePoints = &warm;
    pvar::runCrowdStudy(cfg);

    TimedLivePointCache::Stats c = cold.stats();
    TimedLivePointCache::Stats w = warm.stats();
    report.add("sampling.livepoint_store_us", "us", c.storeUs);
    report.add("sampling.livepoint_fetch_us", "us", w.fetchUs);
    report.add("sampling.livepoint_bytes", "bytes",
               c.stores ? static_cast<double>(c.bytes) / c.stores : 0.0);
}

/** service: the parser and the transport-free request handler. */
void
replayService(Report &report)
{
    const std::string body =
        R"({"device":"SD-805:unit-b","iterations":1})";
    const std::string raw = pvar::strfmt(
        "POST /study HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: %zu\r\n\r\n%s",
        body.size(), body.c_str());
    pvar::HttpLimits limits;
    pvar::HttpParser parser(limits);
    std::vector<double> parse_ns;
    constexpr int kParses = 5000;
    for (int batch = 0; batch < 10; ++batch) {
        std::int64_t t0 = nowNs();
        for (int k = 0; k < kParses; ++k) {
            pvar::HttpRequest req;
            parser.feed(raw.data(), raw.size());
            if (parser.next(req) != pvar::HttpParser::Result::Ready)
                std::fprintf(stderr, "pvar_perf: replay parse failed\n");
        }
        parse_ns.push_back(elapsedSec(t0) * 1e9 / kParses);
    }
    report.add("service.parse_ns", "ns", parse_ns);

    // An unstarted service configured like `pvar_served --iterations 1`.
    pvar::ServiceConfig scfg;
    scfg.study.iterations = 1;
    scfg.study.jobs = pvar::hardwareJobs();
    pvar::StudyService svc(scfg);
    auto request = [](const char *method, const char *path,
                      const std::string &b) {
        pvar::HttpRequest req;
        req.method = method;
        req.path = path;
        req.version = "HTTP/1.1";
        req.body = b;
        return req;
    };
    pvar::HttpRequest hit = request("POST", "/study", body);
    svc.handle(hit); // computes once; every later call is a hit
    std::vector<double> hit_us, miss_ms, devices_us;
    for (int k = 0; k < 200; ++k) {
        std::int64_t t0 = nowNs();
        svc.handle(hit);
        hit_us.push_back(elapsedSec(t0) * 1e6);
    }
    for (int k = 0; k < 16; ++k) {
        pvar::HttpRequest miss = request(
            "POST", "/study",
            pvar::strfmt(R"({"device":"SD-805:unit-b","iterations":1,)"
                         R"("solver":"fast","ambient":%.3f})",
                         24.0 + 0.125 * k));
        std::int64_t t0 = nowNs();
        svc.handle(miss);
        miss_ms.push_back(elapsedSec(t0) * 1e3);
    }
    pvar::HttpRequest devices = request("GET", "/devices", "");
    for (int k = 0; k < 50; ++k) {
        std::int64_t t0 = nowNs();
        svc.handle(devices);
        devices_us.push_back(elapsedSec(t0) * 1e6);
    }
    report.add("service.handle_hit_us", "us", hit_us);
    report.add("service.handle_miss_ms", "ms", miss_ms);
    report.add("service.handle_devices_us", "us", devices_us);
}

} // namespace

void
runLayerReplays(Report &report, const std::string &scratch_dir)
{
    replayParallelSpeedup(report);
    replayCohorts(report);
    replayStagedTick(report);
    replaySteppedTick(report);
    replayStore(report, scratch_dir);
    replayLivePoints(report);
    replayService(report);
}

} // namespace perf
