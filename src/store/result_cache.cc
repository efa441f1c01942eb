#include "store/result_cache.hh"

#include <functional>
#include <vector>

#include "device/registry.hh"
#include "report/spec_json.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

namespace
{

const char *
modeName(WorkloadMode mode)
{
    switch (mode) {
      case WorkloadMode::Unconstrained:
        return "unconstrained";
      case WorkloadMode::FixedFrequency:
        return "fixed_frequency";
    }
    panic("modeName: bad WorkloadMode");
}

const char *
supplyName(SupplyChoice supply)
{
    switch (supply) {
      case SupplyChoice::MonsoonNominal:
        return "monsoon_nominal";
      case SupplyChoice::MonsoonExplicit:
        return "monsoon_explicit";
      case SupplyChoice::Battery:
        return "battery";
    }
    panic("supplyName: bad SupplyChoice");
}

void
putNum(JsonWriter &w, const char *key, double v)
{
    w.key(key).rawValue(jsonExactDouble(v));
}

void
putTime(JsonWriter &w, const char *key, Time t)
{
    w.key(key).value(static_cast<long long>(t.toUsec()));
}

/**
 * Serialize every field of the experiment configuration. Exhaustive
 * on purpose: a field left out of the key would let two *different*
 * computations alias to one cache entry.
 */
void
writeExperimentConfig(JsonWriter &w, const ExperimentConfig &cfg)
{
    w.beginObject();
    w.key("mode").value(modeName(cfg.mode));
    putNum(w, "fixed_frequency_mhz", cfg.fixedFrequency.value());
    w.key("iterations").value(cfg.iterations);

    const AccubenchConfig &ab = cfg.accubench;
    w.key("accubench").beginObject();
    putTime(w, "warmup_us", ab.warmupDuration);
    putTime(w, "workload_us", ab.workloadDuration);
    putNum(w, "cooldown_target_c", ab.cooldownTarget.value());
    putTime(w, "cooldown_poll_us", ab.cooldownPoll);
    putTime(w, "poll_wake_span_us", ab.pollWakeSpan);
    putTime(w, "cooldown_timeout_us", ab.cooldownTimeout);
    w.key("workload").beginObject();
    w.key("name").value(ab.workload.name);
    putNum(w, "utilization", ab.workload.utilization);
    putTime(w, "burst_period_us", ab.workload.burstPeriod);
    putNum(w, "burst_duty", ab.workload.burstDuty);
    w.endObject();
    w.endObject();

    const ThermaboxParams &tb = cfg.thermabox;
    w.key("thermabox").beginObject();
    putNum(w, "target_c", tb.target.value());
    putNum(w, "deadband", tb.deadband);
    putNum(w, "room_c", tb.room.value());
    putNum(w, "air_capacitance", tb.airCapacitance);
    putNum(w, "wall_capacitance", tb.wallCapacitance);
    putNum(w, "air_to_wall", tb.airToWall);
    putNum(w, "wall_to_room", tb.wallToRoom);
    putNum(w, "lamp_power", tb.lampPower);
    putNum(w, "compressor_power", tb.compressorPower);
    putNum(w, "actuator_air_fraction", tb.actuatorAirFraction);
    putTime(w, "probe_tau_us", tb.probeTau);
    putTime(w, "controller_period_us", tb.controllerPeriod);
    putTime(w, "stability_dwell_us", tb.stabilityDwell);
    w.endObject();

    w.key("supply").value(supplyName(cfg.supply));
    putNum(w, "monsoon_v", cfg.monsoonVoltage.value());
    putNum(w, "battery_soc", cfg.batterySoc);
    putTime(w, "dt_us", cfg.dt);
    // Solvers agree to tolerance, not bit-for-bit, so a cached stepped
    // result must never satisfy a fast-solver request (or vice versa).
    w.key("solver").value(solverKindName(cfg.solver));
    w.key("soak_first").value(cfg.soakFirst);
    w.key("retry_salt")
        .value(static_cast<long long>(cfg.retrySalt));
    // cfg.livePoints / cfg.livePointKey are deliberately absent: a
    // live-point-warm run is byte-identical to a cold one (batch.cc
    // rolls back on any mismatch), so both must alias one entry.
    w.endObject();
}

void
writeUnit(JsonWriter &w, const UnitCorner &u)
{
    w.beginObject();
    w.key("id").value(u.id);
    putNum(w, "corner", u.corner);
    putNum(w, "leak_residual", u.leakResidual);
    putNum(w, "vth_offset", u.vthOffset);
    w.key("bin").value(u.bin);
    w.endObject();
}

/**
 * The spec part of the key text of a DeviceRegistry::builtin() entry,
 * serialized once per process (builtin entries are immutable), or
 * null for any other entry, which serializes its own spec.
 */
const std::string *
builtinSpecText(const RegistryEntry &entry)
{
    const std::vector<RegistryEntry> &builtin =
        DeviceRegistry::builtin().entries();
    std::less<const RegistryEntry *> before;
    if (before(&entry, builtin.data()) ||
        !before(&entry, builtin.data() + builtin.size()))
        return nullptr;
    static const std::vector<std::string> texts = [&builtin] {
        std::vector<std::string> out;
        out.reserve(builtin.size());
        for (const RegistryEntry &e : builtin)
            out.push_back(toJson(e.spec));
        return out;
    }();
    return &texts[static_cast<std::size_t>(&entry - builtin.data())];
}

} // namespace

std::string
experimentKeyText(const RegistryEntry &entry, std::size_t unit_index,
                  const ExperimentConfig &cfg)
{
    JsonWriter w;
    w.beginObject();
    // The spec serializer is the one fleet files round-trip through,
    // so it is exhaustive and exact by construction.
    if (const std::string *memo = builtinSpecText(entry))
        w.key("spec").rawValue(*memo);
    else
        w.key("spec").rawValue(toJson(entry.spec));
    w.key("unit");
    writeUnit(w, entry.units.at(unit_index));
    w.key("experiment");
    writeExperimentConfig(w, cfg);
    w.endObject();
    return w.str();
}

std::string
livePointKeyText(const RegistryEntry &entry, std::size_t unit_index,
                 const ExperimentConfig &cfg)
{
    JsonWriter w;
    w.beginObject();
    w.key("live_point")
        .rawValue(experimentKeyText(entry, unit_index, cfg));
    w.endObject();
    return w.str();
}

std::string
contentDigest(std::string_view text)
{
    // Two decorrelated FNV-1a passes; the canonical text is verified
    // on every hit, so a digest collision degrades to a miss rather
    // than a wrong result.
    constexpr std::uint64_t prime = 1099511628211ull;
    std::uint64_t h1 = 14695981039346656037ull;
    for (unsigned char c : text) {
        h1 ^= c;
        h1 *= prime;
    }
    std::uint64_t h2 = h1 ^ 0x9e3779b97f4a7c15ull;
    for (unsigned char c : text) {
        h2 ^= c;
        h2 *= prime;
    }
    return strfmt("%016llx%016llx",
                  static_cast<unsigned long long>(h1),
                  static_cast<unsigned long long>(h2));
}

ResultCache::ResultCache(std::size_t max_entries)
    : _capacity(max_entries > 0 ? max_entries : 1)
{
}

bool
ResultCache::lookup(const RegistryEntry &entry, std::size_t unit_index,
                    const ExperimentConfig &cfg, ExperimentResult &out)
{
    return lookupText(experimentKeyText(entry, unit_index, cfg), out);
}

void
ResultCache::insert(const RegistryEntry &entry, std::size_t unit_index,
                    const ExperimentConfig &cfg,
                    const ExperimentResult &result)
{
    insertText(experimentKeyText(entry, unit_index, cfg), result);
}

bool
ResultCache::lookupText(const std::string &key_text,
                        ExperimentResult &out)
{
    std::string digest = contentDigest(key_text);

    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _index.find(digest);
    if (it != _index.end() && it->second->keyText == key_text) {
        ++_hits;
        _lru.splice(_lru.begin(), _lru, it->second);
        debug("result-cache: hit %s", digest.c_str());
        out = it->second->result;
        return true;
    }
    ++_misses;
    return false;
}

void
ResultCache::insertText(const std::string &key_text,
                        const ExperimentResult &result)
{
    std::string digest = contentDigest(key_text);

    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _index.find(digest);
    if (it != _index.end()) {
        // Concurrent miss already inserted (or a digest collision is
        // being replaced): refresh the entry in place.
        it->second->keyText = key_text;
        it->second->result = result;
        _lru.splice(_lru.begin(), _lru, it->second);
        return;
    }
    _lru.push_front(Node{digest, key_text, result});
    _index.emplace(std::move(digest), _lru.begin());
    while (_lru.size() > _capacity) {
        _index.erase(_lru.back().digest);
        _lru.pop_back();
        ++_evictions;
    }
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    ResultCacheStats s;
    s.hits = _hits;
    s.misses = _misses;
    s.evictions = _evictions;
    s.entries = _lru.size();
    s.capacity = _capacity;
    return s;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _lru.clear();
    _index.clear();
}

} // namespace pvar
