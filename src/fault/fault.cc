#include "fault/fault.hh"

#include <algorithm>
#include <array>
#include <mutex>

namespace pvar
{

namespace
{

struct SiteName
{
    FaultSite site;
    const char *name;
};

constexpr SiteName kSiteNames[kFaultSiteCount] = {
    {FaultSite::StoreAppend, "store.append"},
    {FaultSite::StoreFsync, "store.fsync"},
    {FaultSite::SensorRead, "sensor.read"},
    {FaultSite::ThermaboxRegulate, "thermabox.regulate"},
    {FaultSite::ExperimentRun, "experiment.run"},
    {FaultSite::HttpAccept, "http.accept"},
    {FaultSite::NetAccept, "net.accept"},
    {FaultSite::NetRead, "net.read"},
    {FaultSite::NetWrite, "net.write"},
    {FaultSite::StoreWrite, "store.write"},
};

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::Io, "io"},
    {FaultKind::Transient, "transient"},
    {FaultKind::Permanent, "permanent"},
    {FaultKind::Stuck, "stuck"},
};

struct ModeName
{
    SysFaultMode mode;
    const char *name;
};

constexpr ModeName kModeNames[] = {
    {SysFaultMode::Default, ""},
    {SysFaultMode::Eintr, "eintr"},
    {SysFaultMode::Eagain, "eagain"},
    {SysFaultMode::Emfile, "emfile"},
    {SysFaultMode::ConnAborted, "econnaborted"},
    {SysFaultMode::ConnReset, "econnreset"},
    {SysFaultMode::Pipe, "epipe"},
    {SysFaultMode::NoSpace, "enospc"},
    {SysFaultMode::Short, "short"},
};

/** splitmix64 finalizer: a full-avalanche 64-bit mixer. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Deterministic uniform in [0, 1) for one (seed, site, rule, scope,
 * count). The rule's index participates so stacked probability rules
 * on one site draw independently — without it the rule with the
 * largest probability would shadow every smaller one (any draw below
 * the small threshold is also below the large one, and the first
 * matching rule wins).
 */
double
faultUniform(std::uint64_t seed, FaultSite site, std::size_t rule,
             std::uint64_t scope, std::uint64_t count)
{
    std::uint64_t h = mix64(seed);
    h = mix64(h ^ (static_cast<std::uint64_t>(site) + 1));
    h = mix64(h ^ (static_cast<std::uint64_t>(rule) + 1));
    h = mix64(h ^ scope);
    h = mix64(h ^ count);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// The shared_ptr keeps the plan alive while workers may still be
// reading it through the raw pointer. A live swap (install/clear
// while other threads run faultCheck) cannot free the old plan —
// a reader may have loaded the raw pointer an instant earlier — so
// displaced owners are retired, not destroyed. Plans are tiny and
// processes install O(1) of them, so the retire list stays bounded
// and the hot path stays a single acquire load.
std::mutex g_planMutex;
std::shared_ptr<const FaultPlan> g_planOwner;
std::vector<std::shared_ptr<const FaultPlan>> g_retiredPlans;

std::array<std::atomic<std::uint64_t>, kFaultSiteCount> g_counts{};
std::array<std::atomic<std::uint64_t>, kFaultSiteCount> g_fired{};

thread_local fault_detail::ScopeFrame *t_frame = nullptr;

} // namespace

namespace fault_detail
{

std::atomic<const FaultPlan *> g_activePlan{nullptr};

FaultHit
check(const FaultPlan &plan, FaultSite site)
{
    std::size_t idx = static_cast<std::size_t>(site);
    ScopeFrame *frame = t_frame;
    std::uint64_t scope = frame ? frame->scopeId : 0;
    std::uint64_t count =
        frame ? frame->counts[idx]++
              : g_counts[idx].fetch_add(1, std::memory_order_relaxed);

    for (std::size_t r = 0; r < plan.rules().size(); ++r) {
        const FaultRule &rule = plan.rules()[r];
        if (rule.site != site)
            continue;
        bool fire = false;
        if (!rule.counts.empty()) {
            fire = std::find(rule.counts.begin(), rule.counts.end(),
                             count) != rule.counts.end();
        } else if (rule.every > 0) {
            fire = count >= rule.after &&
                   (count - rule.after) % rule.every == 0;
        } else if (rule.probability > 0.0) {
            fire = count >= rule.after &&
                   faultUniform(plan.seed(), site, r, scope, count) <
                       rule.probability;
        }
        if (!fire)
            continue;
        if (rule.times > 0) {
            std::uint64_t fired =
                frame ? frame->fired[idx]
                      : g_fired[idx].load(std::memory_order_relaxed);
            if (fired >= rule.times)
                continue;
        }
        if (frame)
            ++frame->fired[idx];
        else
            g_fired[idx].fetch_add(1, std::memory_order_relaxed);
        return FaultHit{true, rule.kind, rule.value, rule.mode};
    }
    return FaultHit{};
}

void
pushFrame(ScopeFrame *frame)
{
    frame->parent = t_frame;
    t_frame = frame;
}

void
popFrame(ScopeFrame *frame)
{
    t_frame = frame->parent;
}

} // namespace fault_detail

const char *
faultSiteName(FaultSite site)
{
    return kSiteNames[static_cast<std::size_t>(site)].name;
}

bool
faultSiteFromName(const std::string &name, FaultSite &out)
{
    for (const SiteName &s : kSiteNames) {
        if (name == s.name) {
            out = s.site;
            return true;
        }
    }
    return false;
}

const char *
faultKindName(FaultKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)].name;
}

bool
faultKindFromName(const std::string &name, FaultKind &out)
{
    for (const KindName &k : kKindNames) {
        if (name == k.name) {
            out = k.kind;
            return true;
        }
    }
    return false;
}

const char *
sysFaultModeName(SysFaultMode mode)
{
    return kModeNames[static_cast<std::size_t>(mode)].name;
}

bool
sysFaultModeFromName(const std::string &name, SysFaultMode &out)
{
    for (const ModeName &m : kModeNames) {
        if (name == m.name) {
            out = m.mode;
            return true;
        }
    }
    return false;
}

void
installFaultPlan(std::shared_ptr<const FaultPlan> plan)
{
    std::lock_guard<std::mutex> lock(g_planMutex);
    // Fresh plan, fresh history: global counters restart so two
    // sequential installs of the same plan behave identically.
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        g_counts[i].store(0, std::memory_order_relaxed);
        g_fired[i].store(0, std::memory_order_relaxed);
    }
    fault_detail::g_activePlan.store(plan.get(),
                                     std::memory_order_release);
    if (g_planOwner != nullptr)
        g_retiredPlans.push_back(std::move(g_planOwner));
    g_planOwner = std::move(plan);
}

void
clearFaultPlan()
{
    std::lock_guard<std::mutex> lock(g_planMutex);
    fault_detail::g_activePlan.store(nullptr,
                                     std::memory_order_release);
    if (g_planOwner != nullptr)
        g_retiredPlans.push_back(std::move(g_planOwner));
}

std::shared_ptr<const FaultPlan>
currentFaultPlan()
{
    std::lock_guard<std::mutex> lock(g_planMutex);
    return g_planOwner;
}

std::uint64_t
faultScopeId(std::uint64_t a, std::uint64_t b)
{
    return mix64(mix64(a) ^ (b + 0x6a09e667f3bcc909ull));
}

} // namespace pvar
