/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * A FaultPlan names *sites* (instrumented points in the codebase) and
 * attaches rules describing when a call through that site should fail.
 * Decisions are pure functions of (plan seed, site, rule index,
 * scope id, per-scope invocation count): nothing depends on wall-clock
 * time,
 * thread identity, or scheduling order, so a chaos run replays
 * bit-identically from its serialized plan — including under a
 * different `--jobs` count.
 *
 * Scoping is what makes that work in a parallel study. The study
 * supervisor gives each (task, attempt) a FaultFrame whose id is
 * derived from the task's position in the flattened task list, and
 * activates it around every slice of that attempt's work; every
 * faultCheck() inside counts invocations *per frame*, so "the 3rd
 * sensor read of task 7, attempt 1" fires identically no matter which
 * worker runs it, when, or which other dies share its cohort. Calls
 * outside any frame (the HTTP acceptor, the net.* / store.* syscall
 * sites, store flushes at study boundaries) fall back to global
 * atomic counters; those sites only affect transport and persistence,
 * never study bytes, so their timing nondeterminism is harmless — and
 * because each decision is a pure function of the per-site invocation
 * count, the *set* of counts at which a rule fires is identical for a
 * given seed no matter how threads interleave.
 *
 * Zero overhead when idle: with no plan installed, faultCheck() is a
 * single relaxed atomic load and a predictable branch.
 */

#ifndef PVAR_FAULT_FAULT_HH
#define PVAR_FAULT_FAULT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace pvar
{

/** Instrumented failure points. Names are the JSON-facing ids. */
enum class FaultSite : std::uint8_t
{
    StoreAppend,       ///< "store.append": record-log write fails
    StoreFsync,        ///< "store.fsync": durability point fails
    SensorRead,        ///< "sensor.read": sensor repeats a stale value
    ThermaboxRegulate, ///< "thermabox.regulate": controller outage
    ExperimentRun,     ///< "experiment.run": the whole run errors out
    HttpAccept,        ///< "http.accept": accepted connection dropped
    NetAccept,         ///< "net.accept": accept(2) errno injection
    NetRead,           ///< "net.read": recv(2) short reads / resets
    NetWrite,          ///< "net.write": send(2) short writes / EPIPE
    StoreWrite,        ///< "store.write": write(2) ENOSPC / torn write
};

constexpr std::size_t kFaultSiteCount = 10;

/** Canonical site name ("store.append", ...). */
const char *faultSiteName(FaultSite site);

/** Parse a site name; false when unknown. */
bool faultSiteFromName(const std::string &name, FaultSite &out);

/** What an injected failure means to the site that hits it. */
enum class FaultKind : std::uint8_t
{
    Io,        ///< I/O error (store sites, connection drops)
    Transient, ///< retryable experiment failure
    Permanent, ///< non-retryable failure: the rig itself is broken
    Stuck,     ///< sensor latches its previous value (+ rule value)
};

/** Canonical kind name ("io", "transient", ...). */
const char *faultKindName(FaultKind kind);

/** Parse a kind name; false when unknown. */
bool faultKindFromName(const std::string &name, FaultKind &out);

/**
 * How a syscall-level site (net.*, store.write, store.fsync) should
 * fail when a rule fires. Default leaves the choice to the site's
 * canonical failure (EMFILE for net.accept, ECONNRESET for net.read,
 * EPIPE for net.write, ENOSPC for store.write). The mode is ignored by
 * non-syscall sites, whose behavior is fully described by FaultKind.
 */
enum class SysFaultMode : std::uint8_t
{
    Default,     ///< site-specific canonical errno
    Eintr,       ///< "eintr": interrupted before any work
    Eagain,      ///< "eagain": would-block storm
    Emfile,      ///< "emfile": fd table exhausted (accept)
    ConnAborted, ///< "econnaborted": connection died in the backlog
    ConnReset,   ///< "econnreset": peer reset mid-stream
    Pipe,        ///< "epipe": peer closed the write side
    NoSpace,     ///< "enospc": disk full (store.write)
    Short,       ///< "short": partial transfer; rule value = fraction
};

/** Canonical mode name ("eintr", "short", ...; "" for Default). */
const char *sysFaultModeName(SysFaultMode mode);

/** Parse a mode name; false when unknown. */
bool sysFaultModeFromName(const std::string &name, SysFaultMode &out);

/**
 * One injection rule. Triggers are checked in this order; the first
 * configured one decides:
 *
 *  - counts: fire exactly at these per-scope invocation counts;
 *  - every/after: fire when count >= after and
 *    (count - after) % every == 0;
 *  - probability: fire when hash(seed, site, scope, count) < p.
 *
 * `times` (when > 0) caps how often the rule fires per scope.
 */
struct FaultRule
{
    FaultSite site = FaultSite::StoreAppend;
    FaultKind kind = FaultKind::Io;
    double probability = 0.0;
    std::vector<std::uint64_t> counts;
    std::uint64_t after = 0;
    std::uint64_t every = 0;
    std::uint64_t times = 0;
    double value = 0.0; ///< site-specific magnitude (e.g. stuck offset)
    SysFaultMode mode = SysFaultMode::Default; ///< syscall failure shape
};

/** The outcome of one faultCheck(): fired + how to fail. */
struct FaultHit
{
    bool fired = false;
    FaultKind kind = FaultKind::Io;
    double value = 0.0;
    SysFaultMode mode = SysFaultMode::Default;
};

/** A seeded set of rules; immutable once installed. */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t seed) : _seed(seed) {}

    void addRule(FaultRule rule) { _rules.push_back(std::move(rule)); }

    std::uint64_t seed() const { return _seed; }
    const std::vector<FaultRule> &rules() const { return _rules; }

  private:
    std::uint64_t _seed = 0;
    std::vector<FaultRule> _rules;
};

/**
 * Base of the injected-failure exception hierarchy. The service layer
 * catches this to shed load (503 + Retry-After) instead of crashing;
 * the CLI converts it into a clean fatal error.
 */
class FaultError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A failure the supervisor may retry (fresh RNG substream). */
class TransientFaultError : public FaultError
{
  public:
    using FaultError::FaultError;
};

/** A failure retrying cannot fix; propagates out of the study. */
class PermanentFaultError : public FaultError
{
  public:
    using FaultError::FaultError;
};

/**
 * Install @p plan process-wide (replacing any previous plan) and reset
 * all global invocation counters. Safe to call while other threads
 * run faultCheck(): the displaced plan is retired, never freed, so an
 * in-flight check against it stays valid; the hot-path check reads
 * the plan without synchronization beyond an acquire load.
 */
void installFaultPlan(std::shared_ptr<const FaultPlan> plan);

/**
 * Remove the installed plan (faultCheck returns to the no-op path).
 * Like install, safe during concurrent faultCheck() calls.
 */
void clearFaultPlan();

/** The currently installed plan (nullptr when none). */
std::shared_ptr<const FaultPlan> currentFaultPlan();

namespace fault_detail
{

/**
 * Per-scope counter frame, owned by a FaultFrame and linked
 * thread-locally while a FaultFrameGuard activates it. counts[] is
 * the invocation number per site; fired[] caps rules with a `times`
 * budget.
 */
struct ScopeFrame
{
    std::uint64_t scopeId = 0;
    std::uint64_t counts[kFaultSiteCount] = {};
    std::uint64_t fired[kFaultSiteCount] = {};
    ScopeFrame *parent = nullptr;
};

extern std::atomic<const FaultPlan *> g_activePlan;

FaultHit check(const FaultPlan &plan, FaultSite site);

/** Link/unlink a frame on this thread's scope stack (LIFO only). */
void pushFrame(ScopeFrame *frame);
void popFrame(ScopeFrame *frame);

} // namespace fault_detail

/**
 * Should the call through @p site fail here? Free to call from any
 * thread; a single atomic load when no plan is installed.
 */
inline FaultHit
faultCheck(FaultSite site)
{
    const FaultPlan *plan =
        fault_detail::g_activePlan.load(std::memory_order_acquire);
    if (plan == nullptr)
        return FaultHit{};
    return fault_detail::check(*plan, site);
}

/**
 * A deterministic fault-counting frame.
 *
 * While a FaultFrameGuard activates it, every faultCheck() on that
 * thread counts against the frame's @p scope_id instead of the global
 * counters. The batch engine interleaves many dies' work on one
 * thread, so a FaultFrame owns the counters for one die's attempt and
 * outlives any single activation: counts accrue across activations
 * exactly as they would in one uninterrupted section, which is what
 * keeps per-die fault decisions identical at every batch size.
 */
class FaultFrame
{
  public:
    explicit FaultFrame(std::uint64_t scope_id) { _frame.scopeId = scope_id; }

    FaultFrame(const FaultFrame &) = delete;
    FaultFrame &operator=(const FaultFrame &) = delete;

  private:
    friend class FaultFrameGuard;
    fault_detail::ScopeFrame _frame;
};

/**
 * RAII activation of a FaultFrame on the current thread. Activations
 * nest; the innermost wins. A null frame is a no-op, so call sites
 * need not branch on "is fault scoping on".
 */
class FaultFrameGuard
{
  public:
    explicit FaultFrameGuard(FaultFrame *frame)
        : _frame(frame ? &frame->_frame : nullptr)
    {
        if (_frame)
            fault_detail::pushFrame(_frame);
    }

    ~FaultFrameGuard()
    {
        if (_frame)
            fault_detail::popFrame(_frame);
    }

    FaultFrameGuard(const FaultFrameGuard &) = delete;
    FaultFrameGuard &operator=(const FaultFrameGuard &) = delete;

  private:
    fault_detail::ScopeFrame *_frame;
};

/**
 * Mix two identifiers into a scope id (splitmix64 finalizer). Used as
 * faultScopeId(task_index, attempt) by the study supervisor.
 */
std::uint64_t faultScopeId(std::uint64_t a, std::uint64_t b);

} // namespace pvar

#endif // PVAR_FAULT_FAULT_HH
