#include "store/durable_cache.hh"

namespace pvar
{

DurableCache::DurableCache(const std::string &dir,
                           std::size_t lru_entries, int sync_every)
    : _store(dir, sync_every), _lru(lru_entries)
{
}

ExperimentResult
DurableCache::getOrCompute(
    const RegistryEntry &entry, std::size_t unit_index,
    const ExperimentConfig &cfg,
    const std::function<ExperimentResult()> &compute)
{
    // The LRU fronts the store: its miss path (run outside its lock)
    // consults the log before paying for a simulation, and a fresh
    // compute is written through so the result survives the process.
    // Both layers share the one key text built here.
    std::string key_text = experimentKeyText(entry, unit_index, cfg);
    return _lru.getOrComputeText(key_text, [&]() {
        ExperimentResult result;
        if (_store.get(key_text, result))
            return result;
        result = compute();
        _store.put(key_text, result);
        return result;
    });
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
    // miss, and promote a disk hit so repeats stay in memory — the
    // same layering as the getOrCompute miss path.
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
