/**
 * @file
 * Measurement plumbing shared by the benchmark harness: the result
 * document, the span recorder behind `--trace`, and the timing
 * decorators that observe the library's public cache interfaces.
 *
 * The benchmark measures every layer from the outside. A span is taken
 * around a call into a public function, or inside a decorator the
 * benchmark hands to the library in place of (or around) one of its
 * own ExperimentCache / LivePointCache implementations. Nothing here
 * reaches into the program, so the code under test is byte-for-byte
 * the code users run.
 */

#ifndef PVAR_PERF_PROBE_HH
#define PVAR_PERF_PROBE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "accubench/experiment.hh"
#include "accubench/protocol.hh"

namespace perf
{

/** Nanoseconds on the steady clock since the first call. */
std::int64_t nowNs();

/** Seconds on the steady clock since the first call. */
inline double
nowSec()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

/**
 * What pvar_perf reports: named metrics, each a list of raw samples with
 * its unit, plus the correctness ledger. perf/run.py reduces samples
 * to medians and quartiles, so nothing is summarized here.
 */
class Report
{
  public:
    /**
     * Append samples to a metric (created on first use; a metric is
     * never created without a sample).
     */
    void add(const std::string &name, const std::string &unit,
             const std::vector<double> &samples);

    /** Append one sample. */
    void add(const std::string &name, const std::string &unit,
             double sample)
    {
        add(name, unit, std::vector<double>{sample});
    }

    /**
     * Record one correctness gate. A failed gate always fails the
     * run; `ops` is how many operations it condemned (counted into
     * `failed`).
     */
    void check(const std::string &name, bool ok,
               const std::string &detail = "", std::uint64_t ops = 1);

    /** Count operations whose outputs were checked. */
    void attempted(std::uint64_t n) { _attempted += n; }

    bool correct() const { return _failedChecks == 0; }

    /** The whole document, one JSON object. */
    std::string json(const std::string &workload, std::uint64_t seed,
                     bool traced) const;

  private:
    struct Metric
    {
        std::string unit;
        std::vector<double> samples;
    };
    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };

    std::map<std::string, Metric> _metrics;
    std::vector<Check> _checks;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
    std::uint64_t _failedChecks = 0;
};

/** One recorded span (Chrome trace-event "complete" event). */
struct Span
{
    const char *name = ""; ///< "layer.call"
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    std::uint32_t tid = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t op = 0;     ///< the benchmark operation it belongs to
};

/**
 * In-memory span recorder. Off by default; when off every probe costs
 * one relaxed load. Spans accumulate in per-thread buffers owned by
 * the recorder (the library's one-shot thread pools exit before the
 * spans are read) and are only touched again when the run ends.
 */
class Tracer
{
  public:
    static bool on();
    static void enable(bool on);

    /**
     * Label spans with a benchmark operation (op ids are small
     * integers naming e.g. "study.cold"; see opName). 0 = none.
     */
    static void setOp(std::uint64_t op, const char *name);

    /** Every span recorded so far, all threads. */
    static std::vector<Span> collect();

    /** Op id -> name, for the trace file. */
    static std::map<std::uint64_t, std::string> opNames();
};

/** RAII span around a call into one layer. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    const char *_name;
    bool _on;
    std::int64_t _start = 0;
    std::uint64_t _id = 0;
    std::uint64_t _parent = 0;
};

/** Write the recorded spans as Chrome trace-event JSON (Perfetto). */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

/**
 * Self time per layer ("sim", "store", ...): each span's duration
 * minus the part of its interval its children cover, summed by the
 * name's prefix up to the first '.'. Units: seconds.
 */
std::map<std::string, double> layerSelfSeconds(
    const std::vector<Span> &spans);

/**
 * ExperimentCache decorator. With an inner cache it forwards every
 * call; without one it is a pass-through that never hits. Either way
 * it records spans: `accubench.experiment` around each compute() the
 * stepped scheduler asks it to run, `accubench.cohort` from a thread's
 * last lookup to its first insert (the batched engine's compute), and
 * `store.lookup` / `store.insert` / `store.flush` around the inner
 * cache. It can also keep a copy of every result it sees.
 */
class TimedExperimentCache : public pvar::ExperimentCache
{
  public:
    explicit TimedExperimentCache(pvar::ExperimentCache *inner = nullptr)
        : _inner(inner)
    {
    }

    pvar::ExperimentResult getOrCompute(
        const pvar::RegistryEntry &entry, std::size_t unit_index,
        const pvar::ExperimentConfig &cfg,
        const std::function<pvar::ExperimentResult()> &compute) override;

    bool lookup(const pvar::RegistryEntry &entry, std::size_t unit_index,
                const pvar::ExperimentConfig &cfg,
                pvar::ExperimentResult &out) override;

    void insert(const pvar::RegistryEntry &entry, std::size_t unit_index,
                const pvar::ExperimentConfig &cfg,
                const pvar::ExperimentResult &result) override;

    void flushPending() override;

    /** Keep every computed or inserted result (replay inputs). */
    void keepResults(bool keep) { _keep = keep; }

    struct Kept
    {
        const pvar::RegistryEntry *entry;
        std::size_t unitIndex;
        pvar::ExperimentConfig cfg;
        pvar::ExperimentResult result;
    };
    std::vector<Kept> kept() const;

    /** lookup() calls that hit / missed. */
    std::uint64_t hits() const;
    std::uint64_t misses() const;

  private:
    pvar::ExperimentCache *_inner;
    bool _keep = false;
    mutable std::mutex _mutex;
    std::vector<Kept> _kept;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;

    void keep(const pvar::RegistryEntry &entry, std::size_t unit_index,
              const pvar::ExperimentConfig &cfg,
              const pvar::ExperimentResult &result);
};

/**
 * LivePointCache decorator: `sampling.livepoint_fetch` and
 * `sampling.livepoint_store` spans, hit counts and value bytes.
 */
class TimedLivePointCache : public pvar::LivePointCache
{
  public:
    explicit TimedLivePointCache(pvar::LivePointCache &inner)
        : _inner(inner)
    {
    }

    bool fetch(const std::string &key_text, std::string &out) override;
    void store(const std::string &key_text,
               const std::string &value) override;

    struct Stats
    {
        std::uint64_t fetches = 0;
        std::uint64_t hits = 0;
        std::uint64_t stores = 0;
        std::uint64_t bytes = 0; ///< stored value bytes
        std::vector<double> fetchUs;
        std::vector<double> storeUs;
    };
    Stats stats() const;

  private:
    pvar::LivePointCache &_inner;
    mutable std::mutex _mutex;
    Stats _stats;
};

/**
 * The layer replays of a traced run (replay.cc): each layer's public
 * entry points timed in isolation on fixed inputs, so every workload's
 * traced run carries the same per-layer breakdown. Runs after the
 * traced workload, with tracing off. @p scratch_dir is an empty
 * directory the store replay may use.
 */
void runLayerReplays(Report &report, const std::string &scratch_dir);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perf

#endif // PVAR_PERF_PROBE_HH
