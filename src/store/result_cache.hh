/**
 * @file
 * Content-addressed cache of experiment results.
 *
 * Every (unit, mode) experiment the study protocol schedules is fully
 * described by pure data: the DeviceSpec, the UnitCorner, and the
 * ExperimentConfig. The cache serializes that triple into a canonical
 * JSON text (exact-double rendering, fixed key order — the same
 * machinery that makes fleet files round-trip bit-exactly), hashes it
 * into a content digest, and memoizes the simulation keyed by that
 * digest. Identical experiments — duplicated units inside one fleet
 * file, or repeated requests against a long-running pvar_served — are
 * simulated once and served from memory thereafter.
 *
 * Building the key text is the expensive part of a probe (every double
 * of the spec goes through jsonExactDouble), so each cache call builds
 * it once: lookup() and insert() are one-line wrappers over the
 * key-text entry points, and layered caches (DurableCache) build the
 * text once and hand it to both the LRU and the store. The spec part
 * of a DeviceRegistry::builtin() entry, which is immutable, is
 * serialized once per process; any other entry (a fleet document's)
 * serializes its own spec, to the same bytes for the same spec.
 *
 * Because experiments are deterministic, a cache hit returns the same
 * bytes a fresh simulation would produce; the determinism tests pin
 * cold run ≡ warm run at any jobs count. Entries are LRU-bounded, the
 * cache is thread-safe (the scheduler calls in from every worker),
 * and the simulation runs between a lookup() miss and its insert(),
 * outside the lock, so concurrent misses don't serialize.
 *
 * An entry is a copy of the result, and a hit hands out a copy of the
 * entry; both are cheap because a result's trace is frozen and shared
 * (ExperimentResult::trace), so neither copies a sample under the
 * mutex. The caller owns its copy's supervision fields, and a trace it
 * holds outlives the entry's eviction.
 */

#ifndef PVAR_STORE_RESULT_CACHE_HH
#define PVAR_STORE_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "accubench/protocol.hh"

namespace pvar
{

/**
 * The canonical cache text of one experiment: a JSON document over
 * (spec, unit, experiment config) with every double rendered by
 * jsonExactDouble() and times as integer microseconds, so two
 * experiments share a key iff they are the same computation.
 */
std::string experimentKeyText(const RegistryEntry &entry,
                              std::size_t unit_index,
                              const ExperimentConfig &cfg);

/**
 * The canonical key of the live-point checkpoint for one experiment:
 * the experiment key wrapped in a `{"live_point": ...}` discriminator
 * so a checkpoint and a result for the same experiment coexist in one
 * digest-indexed log instead of superseding each other. The full
 * config (spec, unit, ambient, solver, dt, ...) is part of the key on
 * purpose — any parameter that changes the protocol's pre-capture
 * trajectory must yield a different checkpoint, which is what makes
 * warm restores bit-identical rather than merely close.
 */
std::string livePointKeyText(const RegistryEntry &entry,
                             std::size_t unit_index,
                             const ExperimentConfig &cfg);

/** 128-bit FNV-1a digest of @p text, as 32 hex characters. */
std::string contentDigest(std::string_view text);

/** Counters for /healthz and the cache tests. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
};

/**
 * Thread-safe LRU memoizer for experiment results.
 *
 * Plugs into StudyConfig::cache; the protocol supervisor probes
 * lookup() for every experiment attempt and insert()s each miss's
 * result. Concurrent misses on the same key both simulate (the results
 * are identical by determinism) and the second insert is a no-op
 * overwrite — callers never block on another worker's simulation.
 */
class ResultCache : public ExperimentCache
{
  public:
    /** @param max_entries LRU bound (clamped to >= 1). */
    explicit ResultCache(std::size_t max_entries = 128);

    bool lookup(const RegistryEntry &entry, std::size_t unit_index,
                const ExperimentConfig &cfg,
                ExperimentResult &out) override;

    void insert(const RegistryEntry &entry, std::size_t unit_index,
                const ExperimentConfig &cfg,
                const ExperimentResult &result) override;

    /**
     * @name Key-text entry points
     * lookup() and insert() on a key built by experimentKeyText(),
     * for callers that already hold it.
     * @{
     */
    bool lookupText(const std::string &key_text, ExperimentResult &out);

    void insertText(const std::string &key_text,
                    const ExperimentResult &result);
    /** @} */

    ResultCacheStats stats() const;

    /** Drop all entries (counters keep accumulating). */
    void clear();

  private:
    struct Node
    {
        std::string digest;
        std::string keyText;
        ExperimentResult result;
    };

    mutable std::mutex _mutex;
    std::size_t _capacity;
    std::list<Node> _lru; // front = most recently used
    std::unordered_map<std::string, std::list<Node>::iterator> _index;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace pvar

#endif // PVAR_STORE_RESULT_CACHE_HH
