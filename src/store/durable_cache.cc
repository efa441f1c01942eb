#include "store/durable_cache.hh"

namespace pvar
{

DurableCache::DurableCache(const std::string &dir,
                           std::size_t lru_entries, int sync_every)
    : _store(dir, sync_every), _lru(lru_entries)
{
}

bool
DurableCache::lookup(const RegistryEntry &entry,
                     std::size_t unit_index,
                     const ExperimentConfig &cfg, ExperimentResult &out)
{
    std::string key_text = experimentKeyText(entry, unit_index, cfg);
    if (_lru.lookupText(key_text, out))
        return true;
    // LRU miss already counted; consult the log before reporting a
    // miss, and promote a disk hit so repeats stay in memory.
    if (_store.get(key_text, out)) {
        _lru.insertText(key_text, out);
        return true;
    }
    return false;
}

void
DurableCache::insert(const RegistryEntry &entry, std::size_t unit_index,
                     const ExperimentConfig &cfg,
                     const ExperimentResult &result)
{
    std::string key_text = experimentKeyText(entry, unit_index, cfg);
    _lru.insertText(key_text, result);
    _store.put(key_text, result);
}

void
DurableCache::flushPending()
{
    _store.sync();
}

} // namespace pvar
