#include "probe.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <unordered_map>

#include "report/json.hh"

namespace perf
{

std::int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -- Report --------------------------------------------------------------

void
Report::add(const std::string &name, const std::string &unit,
            const std::vector<double> &samples)
{
    if (samples.empty())
        return;
    Metric &m = _metrics[name];
    m.unit = unit;
    m.samples.insert(m.samples.end(), samples.begin(), samples.end());
}

void
Report::check(const std::string &name, bool ok, const std::string &detail,
              std::uint64_t ops)
{
    _checks.push_back(Check{name, ok, detail});
    if (!ok) {
        ++_failedChecks;
        _failed += ops;
        std::fprintf(stderr, "pvar_perf: check failed: %s%s%s\n",
                     name.c_str(), detail.empty() ? "" : ": ",
                     detail.c_str());
    }
}

std::string
Report::json(const std::string &workload, std::uint64_t seed,
             bool traced) const
{
    pvar::JsonWriter w;
    w.beginObject();
    w.key("workload").value(workload);
    w.key("seed").value(static_cast<long long>(seed));
    w.key("traced").value(traced);
    w.key("correct").value(correct());
    // Every failed gate fails the run, even one no operation counted.
    std::uint64_t failed =
        std::max<std::uint64_t>(_failed, _failedChecks ? 1 : 0);
    w.key("attempted").value(static_cast<long long>(
        std::max<std::uint64_t>(_attempted, failed)));
    w.key("failed").value(static_cast<long long>(failed));
    w.key("checks").beginArray();
    for (const Check &c : _checks) {
        w.beginObject();
        w.key("name").value(c.name);
        w.key("ok").value(c.ok);
        if (!c.detail.empty())
            w.key("detail").value(c.detail);
        w.endObject();
    }
    w.endArray();
    w.key("metrics").beginObject();
    for (const auto &[name, m] : _metrics) {
        w.key(name).beginObject();
        w.key("unit").value(m.unit);
        w.key("samples").beginArray();
        for (double v : m.samples)
            w.rawValue(pvar::jsonExactDouble(v));
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

// -- Tracer --------------------------------------------------------------

namespace
{

struct Buffer
{
    std::uint32_t tid = 0;
    std::vector<Span> spans;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_nextId{1};
std::atomic<std::uint64_t> g_op{0};
// Innermost span open on the thread that enabled tracing; worker
// threads with nothing open parent their spans to it.
std::atomic<std::uint64_t> g_fanoutParent{0};
std::thread::id g_mainThread;

std::mutex g_buffersMutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::map<std::uint64_t, std::string> g_opNames;

thread_local Buffer *t_buffer = nullptr;
thread_local std::vector<std::uint64_t> t_stack;

Buffer &
threadBuffer()
{
    if (!t_buffer) {
        std::lock_guard<std::mutex> lock(g_buffersMutex);
        g_buffers.push_back(std::make_unique<Buffer>());
        t_buffer = g_buffers.back().get();
        t_buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
    }
    return *t_buffer;
}

bool
onMainThread()
{
    return std::this_thread::get_id() == g_mainThread;
}

std::uint64_t
nextSpanId()
{
    return g_nextId.fetch_add(1, std::memory_order_relaxed);
}

/**
 * The parent a new span on this thread gets: the innermost open span
 * on this thread, else the innermost span open on the thread that
 * fanned the work out.
 */
std::uint64_t
currentParent()
{
    if (!t_stack.empty())
        return t_stack.back();
    return onMainThread() ? 0 : g_fanoutParent.load();
}

void
pushSpan(std::uint64_t id)
{
    t_stack.push_back(id);
    if (onMainThread())
        g_fanoutParent.store(id);
}

void
popSpan()
{
    t_stack.pop_back();
    if (onMainThread())
        g_fanoutParent.store(t_stack.empty() ? 0 : t_stack.back());
}

void
recordSpan(const char *name, std::int64_t start_ns, std::int64_t dur_ns,
           std::uint64_t id, std::uint64_t parent)
{
    Buffer &b = threadBuffer();
    Span s;
    s.name = name;
    s.startNs = start_ns;
    s.durNs = dur_ns;
    s.tid = b.tid;
    s.id = id;
    s.parent = parent;
    s.op = g_op.load(std::memory_order_relaxed);
    b.spans.push_back(s);
}

} // namespace

bool
Tracer::on()
{
    return g_on.load(std::memory_order_relaxed);
}

void
Tracer::enable(bool on)
{
    g_mainThread = std::this_thread::get_id();
    g_on.store(on);
}

void
Tracer::setOp(std::uint64_t op, const char *name)
{
    g_op.store(op);
    std::lock_guard<std::mutex> lock(g_buffersMutex);
    if (op)
        g_opNames[op] = name;
}

std::vector<Span>
Tracer::collect()
{
    std::lock_guard<std::mutex> lock(g_buffersMutex);
    std::vector<Span> all;
    for (const auto &b : g_buffers)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

std::map<std::uint64_t, std::string>
Tracer::opNames()
{
    std::lock_guard<std::mutex> lock(g_buffersMutex);
    return g_opNames;
}

SpanScope::SpanScope(const char *name) : _name(name), _on(Tracer::on())
{
    if (!_on)
        return;
    _id = nextSpanId();
    _parent = currentParent();
    pushSpan(_id);
    _start = nowNs();
}

SpanScope::~SpanScope()
{
    if (!_on)
        return;
    std::int64_t end = nowNs();
    popSpan();
    recordSpan(_name, _start, end - _start, _id, _parent);
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::string> ops = Tracer::opNames();
    pvar::JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (const Span &s : spans) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value(std::string(s.name).substr(
            0, std::string(s.name).find('.')));
        w.key("ph").value("X");
        w.key("ts").rawValue(
            pvar::jsonExactDouble(static_cast<double>(s.startNs) / 1e3));
        w.key("dur").rawValue(
            pvar::jsonExactDouble(static_cast<double>(s.durNs) / 1e3));
        w.key("pid").value(1);
        w.key("tid").value(static_cast<long long>(s.tid));
        w.key("args").beginObject();
        w.key("id").value(static_cast<long long>(s.id));
        w.key("parent").value(static_cast<long long>(s.parent));
        auto op = ops.find(s.op);
        w.key("op").value(op == ops.end() ? "" : op->second);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::ofstream f(path);
    f << w.str() << "\n";
    return static_cast<bool>(f);
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const Span &s : spans) {
        std::int64_t lo = s.startNs;
        std::int64_t hi = s.startNs + s.durNs;
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        auto it = children.find(s.id);
        if (it != children.end()) {
            for (const Span *c : it->second) {
                std::int64_t a = std::max(lo, c->startNs);
                std::int64_t b = std::min(hi, c->startNs + c->durNs);
                if (a < b)
                    cover.emplace_back(a, b);
            }
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = lo;
        for (const auto &[a, b] : cover) {
            std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        std::string name = s.name;
        self[name.substr(0, name.find('.'))] +=
            static_cast<double>(s.durNs - covered) * 1e-9;
    }
    return self;
}

// -- TimedExperimentCache ------------------------------------------------

namespace
{

// The batched engine looks up every member of a cohort, runs the
// cohort, then inserts every result, all on one worker thread: the
// gap between the last lookup and the first insert is the cohort's
// compute. Keyed by op so a warm pass (lookups only) never pairs with
// a later op's insert.
thread_local std::int64_t t_lastLookupEnd = 0;
thread_local std::uint64_t t_lastLookupOp = 0;

} // namespace

void
TimedExperimentCache::keep(const pvar::RegistryEntry &entry,
                           std::size_t unit_index,
                           const pvar::ExperimentConfig &cfg,
                           const pvar::ExperimentResult &result)
{
    if (!_keep)
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    _kept.push_back(Kept{&entry, unit_index, cfg, result});
}

pvar::ExperimentResult
TimedExperimentCache::getOrCompute(
    const pvar::RegistryEntry &entry, std::size_t unit_index,
    const pvar::ExperimentConfig &cfg,
    const std::function<pvar::ExperimentResult()> &compute)
{
    bool computed = false;
    auto timed = [&]() {
        computed = true;
        SpanScope span("accubench.experiment");
        return compute();
    };
    pvar::ExperimentResult r;
    if (_inner) {
        SpanScope span("store.lookup");
        r = _inner->getOrCompute(entry, unit_index, cfg, timed);
    } else {
        r = timed();
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        ++(computed ? _misses : _hits);
    }
    if (computed)
        keep(entry, unit_index, cfg, r);
    return r;
}

bool
TimedExperimentCache::lookup(const pvar::RegistryEntry &entry,
                             std::size_t unit_index,
                             const pvar::ExperimentConfig &cfg,
                             pvar::ExperimentResult &out)
{
    bool hit = false;
    if (_inner) {
        SpanScope span("store.lookup");
        hit = _inner->lookup(entry, unit_index, cfg, out);
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        ++(hit ? _hits : _misses);
    }
    if (Tracer::on()) {
        t_lastLookupEnd = nowNs();
        t_lastLookupOp = g_op.load(std::memory_order_relaxed);
    }
    return hit;
}

void
TimedExperimentCache::insert(const pvar::RegistryEntry &entry,
                             std::size_t unit_index,
                             const pvar::ExperimentConfig &cfg,
                             const pvar::ExperimentResult &result)
{
    if (Tracer::on() && t_lastLookupEnd &&
        t_lastLookupOp == g_op.load(std::memory_order_relaxed)) {
        std::int64_t end = nowNs();
        recordSpan("accubench.cohort", t_lastLookupEnd,
                   end - t_lastLookupEnd, nextSpanId(), currentParent());
    }
    t_lastLookupEnd = 0;
    if (_inner) {
        SpanScope span("store.insert");
        _inner->insert(entry, unit_index, cfg, result);
    }
    keep(entry, unit_index, cfg, result);
}

void
TimedExperimentCache::flushPending()
{
    if (!_inner)
        return;
    SpanScope span("store.flush");
    _inner->flushPending();
}

std::vector<TimedExperimentCache::Kept>
TimedExperimentCache::kept() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _kept;
}

std::uint64_t
TimedExperimentCache::hits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hits;
}

std::uint64_t
TimedExperimentCache::misses() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _misses;
}

// -- TimedLivePointCache -------------------------------------------------

bool
TimedLivePointCache::fetch(const std::string &key_text, std::string &out)
{
    std::int64_t t0 = nowNs();
    bool hit;
    {
        SpanScope span("sampling.livepoint_fetch");
        hit = _inner.fetch(key_text, out);
    }
    double us = static_cast<double>(nowNs() - t0) * 1e-3;
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.fetches;
    _stats.hits += hit ? 1 : 0;
    _stats.fetchUs.push_back(us);
    return hit;
}

void
TimedLivePointCache::store(const std::string &key_text,
                           const std::string &value)
{
    std::int64_t t0 = nowNs();
    {
        SpanScope span("sampling.livepoint_store");
        _inner.store(key_text, value);
    }
    double us = static_cast<double>(nowNs() - t0) * 1e-3;
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.stores;
    _stats.bytes += value.size();
    _stats.storeUs.push_back(us);
}

TimedLivePointCache::Stats
TimedLivePointCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace perf
