/**
 * @file
 * DurableCache: the in-memory LRU layered over the on-disk store.
 *
 * The ExperimentCache implementation behind `--cache-dir`: lookups
 * check the LRU first, then the RecordLog-backed ExperimentStore
 * (promoting a disk hit into the LRU); the supervisor simulates each
 * miss and insert() writes the result through to both layers.
 * Because the store and the LRU key on the same canonical (spec,
 * unit, config) bytes, a restarted process — pvar_served after a
 * crash, or a re-run of a killed pvar_study — rebuilds the index from
 * disk and serves every already-completed experiment without
 * re-simulating it.
 *
 * Determinism is inherited, not re-proved: a stored result was
 * produced by the same deterministic simulation a fresh compute would
 * run, the codec round-trips it bit-identically, and both layers
 * degrade corruption to a miss. So cold ≡ warm at any jobs count,
 * across process lifetimes.
 */

#ifndef PVAR_STORE_DURABLE_CACHE_HH
#define PVAR_STORE_DURABLE_CACHE_HH

#include <string>

#include "store/result_cache.hh"
#include "store/store.hh"

namespace pvar
{

class DurableCache : public ExperimentCache
{
  public:
    /**
     * @param dir          store directory (created if missing)
     * @param lru_entries  in-memory layer capacity, in experiments
     * @param sync_every   fsync batching for the record log
     */
    explicit DurableCache(const std::string &dir,
                          std::size_t lru_entries = 128,
                          int sync_every = 8);

    /** Probe LRU then disk; a disk hit is promoted into the LRU. */
    bool lookup(const RegistryEntry &entry, std::size_t unit_index,
                const ExperimentConfig &cfg,
                ExperimentResult &out) override;

    /** Write through both layers, sharing one key text. */
    void insert(const RegistryEntry &entry, std::size_t unit_index,
                const ExperimentConfig &cfg,
                const ExperimentResult &result) override;

    /** Study finished: fsync whatever the batch window still holds. */
    void flushPending() override;

    /** The memory layer's counters. */
    ResultCacheStats lruStats() const { return _lru.stats(); }

    /** The disk layer's counters. */
    ExperimentStoreStats storeStats() const { return _store.stats(); }

    /** Direct access for tools and tests. */
    ExperimentStore &store() { return _store; }

    /**
     * True when the disk layer lost an append or a durability point
     * and downgraded to memory-only. Results stay correct (the LRU
     * keeps serving); they just stop persisting until a reopen.
     */
    bool degraded() const { return _store.degraded(); }

  private:
    ExperimentStore _store;
    ResultCache _lru;
};

/**
 * LivePointCache adapter over an ExperimentStore: live points share
 * the result log (as codec-v3 records) and therefore inherit its CRC
 * framing, torn-tail recovery, full-key read verification, and
 * compaction. Any validation failure surfaces as a fetch miss, which
 * the protocol answers with a cold start.
 */
class DurableLivePointCache : public LivePointCache
{
  public:
    explicit DurableLivePointCache(ExperimentStore &store)
        : _store(store)
    {
    }

    bool
    fetch(const std::string &key_text, std::string &out) override
    {
        return _store.getBytes(key_text, out);
    }

    void
    store(const std::string &key_text, const std::string &value) override
    {
        _store.putBytes(key_text, value);
    }

  private:
    ExperimentStore &_store;
};

} // namespace pvar

#endif // PVAR_STORE_DURABLE_CACHE_HH
