/**
 * @file
 * Experiment runner: ACCUBENCH iterations under controlled conditions.
 *
 * Reproduces the paper's §III procedure end to end: the device sits
 * inside a THERMABOX, is powered by a Monsoon (or its own battery),
 * the app confirms the chamber is within its target band, and then
 * runs N back-to-back ACCUBENCH iterations in one of two modes:
 *
 *  - UNCONSTRAINED: performance governor, free thermal throttling —
 *    measures performance variation;
 *  - FIXED-FREQUENCY: all clusters pinned at a low OPP that never
 *    throttles — measures energy variation at equal work.
 */

#ifndef PVAR_ACCUBENCH_EXPERIMENT_HH
#define PVAR_ACCUBENCH_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "accubench/accubench.hh"
#include "accubench/result.hh"
#include "device/device.hh"
#include "thermabox/thermabox.hh"

namespace pvar
{

/** The paper's two workload configurations. */
enum class WorkloadMode
{
    Unconstrained,
    FixedFrequency,
};

/** Power-source selection. */
enum class SupplyChoice
{
    /** Monsoon programmed to the battery's nominal voltage (default). */
    MonsoonNominal,

    /** Monsoon programmed to an explicit voltage. */
    MonsoonExplicit,

    /** The phone's own battery. */
    Battery,
};

/**
 * Storage interface for live-point checkpoints: opaque serialized
 * simulator state keyed by the full canonical experiment key, saved
 * the first time a protocol reaches its post-warmup capture point and
 * restored on re-runs so the stabilize/warmup/cooldown prefix is
 * skipped. Declared here (not in store/) because the experiment layer
 * cannot depend on the durability layer; the durable store adapts
 * itself to this interface (store/durable_cache.hh), and tests/bench
 * use the in-memory implementation below.
 *
 * Contract: fetch() returns true only for a value previously stored
 * under the exact same key that still validates; implementations must
 * treat corruption as a miss. Restoring is transactional at the call
 * site (batch.cc rolls back to the cold state when a fetched value
 * fails to decode), so a live point can make a run *faster*, never
 * *different*.
 */
class LivePointCache
{
  public:
    virtual ~LivePointCache() = default;

    /** Fetch the checkpoint stored under @p key_text, if any. */
    virtual bool fetch(const std::string &key_text,
                       std::string &out) = 0;

    /** Store (or supersede) the checkpoint for @p key_text. */
    virtual void store(const std::string &key_text,
                       const std::string &value) = 0;
};

/**
 * Process-local LivePointCache (tests, benchmarks). Thread-safe: a
 * crowd study's parallel cohorts share one instance.
 */
class MemoryLivePointCache : public LivePointCache
{
  public:
    bool
    fetch(const std::string &key_text, std::string &out) override
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _map.find(key_text);
        if (it == _map.end())
            return false;
        out = it->second;
        return true;
    }

    void
    store(const std::string &key_text, const std::string &value) override
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _map[key_text] = value;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _map.size();
    }

  private:
    mutable std::mutex _mutex;
    std::map<std::string, std::string> _map;
};

/** Full experiment configuration. */
struct ExperimentConfig
{
    WorkloadMode mode = WorkloadMode::Unconstrained;

    /** Pinned frequency for FIXED-FREQUENCY mode. */
    MegaHertz fixedFrequency{1190.0};

    /** Back-to-back iterations (paper: minimum 5). */
    int iterations = 5;

    AccubenchConfig accubench;
    ThermaboxParams thermabox;

    SupplyChoice supply = SupplyChoice::MonsoonNominal;

    /** Voltage for SupplyChoice::MonsoonExplicit. */
    Volts monsoonVoltage{3.85};

    /** Battery state of charge for SupplyChoice::Battery. */
    double batterySoc = 0.95;

    /** Simulation step. */
    Time dt = Time::msec(10);

    /**
     * Thermal solver: Stepped (default) is the bit-identity reference
     * integrator; Fast advances analytically between simulator events
     * (outputs agree to tolerance, not bit-for-bit; ~10-100x faster).
     */
    SolverKind solver = SolverKind::Stepped;

    /** Soak the device to the chamber target before iteration 1. */
    bool soakFirst = true;

    /**
     * Retry attempt discriminator, set by the supervised scheduler
     * (0 = first attempt). It feeds the cache key — so a retried
     * attempt never aliases the attempt it replaces — and re-keys the
     * device's sensor noise stream via buildDevice()'s seed salt.
     */
    std::uint64_t retrySalt = 0;

    /**
     * Live-point checkpointing (optional). When a cache is attached
     * and `livePointKey` is non-empty, the protocol restores the
     * post-warmup capture state stored under the key (skipping the
     * stabilize/warmup/cooldown prefix of iteration 0) or, on a cold
     * run, captures it at the capture point for the next run.
     *
     * Deliberately EXCLUDED from the result cache key
     * (writeExperimentConfig): warm and cold runs produce
     * byte-identical results — that is the whole contract — so they
     * must share one cache entry.
     */
    LivePointCache *livePoints = nullptr;
    std::string livePointKey;
};

/**
 * Run one experiment (N iterations) on one device.
 *
 * The device's DVFS mode, supply and environment are configured from
 * `cfg`; the device is restored to performance mode afterwards.
 */
ExperimentResult runExperiment(Device &device, const ExperimentConfig &cfg);

} // namespace pvar

#endif // PVAR_ACCUBENCH_EXPERIMENT_HH
