#include "report/fault_json.hh"

#include <fstream>
#include <optional>
#include <sstream>

#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

namespace
{

/** Non-negative integer field, or @p dflt when absent. */
std::uint64_t
u64Field(const JsonValue &obj, const char *key, std::uint64_t dflt)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return dflt;
    std::optional<std::uint64_t> u =
        jsonInteger<std::uint64_t>(v->asNumber(), 0);
    if (!u) {
        throw JsonError(strfmt("'%s' must be a non-negative integer",
                               key));
    }
    return *u;
}

FaultRule
ruleFromJson(const JsonValue &obj)
{
    if (!obj.isObject())
        throw JsonError("fault rule must be an object");

    FaultRule rule;
    const std::string &site = obj.at("site").asString();
    if (!faultSiteFromName(site, rule.site))
        throw JsonError(strfmt("unknown fault site '%s'", site.c_str()));

    if (const JsonValue *kind = obj.find("kind")) {
        if (!faultKindFromName(kind->asString(), rule.kind)) {
            throw JsonError(strfmt("unknown fault kind '%s'",
                                   kind->asString().c_str()));
        }
    }
    if (const JsonValue *p = obj.find("probability")) {
        rule.probability = p->asNumber();
        if (rule.probability < 0.0 || rule.probability > 1.0)
            throw JsonError("'probability' must be in [0, 1]");
    }
    if (const JsonValue *counts = obj.find("counts")) {
        for (const JsonValue &c : counts->asArray()) {
            std::optional<std::uint64_t> u =
                jsonInteger<std::uint64_t>(c.asNumber(), 0);
            if (!u) {
                throw JsonError(
                    "'counts' entries must be non-negative integers");
            }
            rule.counts.push_back(*u);
        }
    }
    if (const JsonValue *mode = obj.find("mode")) {
        if (!sysFaultModeFromName(mode->asString(), rule.mode)) {
            throw JsonError(strfmt("unknown fault mode '%s'",
                                   mode->asString().c_str()));
        }
    }
    rule.after = u64Field(obj, "after", 0);
    rule.every = u64Field(obj, "every", 0);
    rule.times = u64Field(obj, "times", 0);
    if (const JsonValue *v = obj.find("value"))
        rule.value = v->asNumber();
    return rule;
}

} // namespace

std::string
toJson(const FaultPlan &plan)
{
    JsonWriter w;
    w.beginObject();
    w.key("seed").value(static_cast<long long>(plan.seed()));
    w.key("rules").beginArray();
    for (const FaultRule &rule : plan.rules()) {
        w.beginObject();
        w.key("site").value(faultSiteName(rule.site));
        w.key("kind").value(faultKindName(rule.kind));
        if (rule.mode != SysFaultMode::Default)
            w.key("mode").value(sysFaultModeName(rule.mode));
        w.key("probability").rawValue(jsonExactDouble(rule.probability));
        if (!rule.counts.empty()) {
            w.key("counts").beginArray();
            for (std::uint64_t c : rule.counts)
                w.value(static_cast<long long>(c));
            w.endArray();
        }
        w.key("after").value(static_cast<long long>(rule.after));
        w.key("every").value(static_cast<long long>(rule.every));
        w.key("times").value(static_cast<long long>(rule.times));
        w.key("value").rawValue(jsonExactDouble(rule.value));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

FaultPlan
faultPlanFromJson(const JsonValue &doc)
{
    if (!doc.isObject())
        throw JsonError("fault plan must be an object");
    double seed_d =
        doc.find("seed") ? doc.at("seed").asNumber() : 0.0;
    auto seed = static_cast<std::uint64_t>(seed_d);
    if (seed_d < 0.0 || static_cast<double>(seed) != seed_d)
        throw JsonError("'seed' must be a non-negative integer");

    FaultPlan plan(seed);
    if (const JsonValue *rules = doc.find("rules")) {
        for (const JsonValue &r : rules->asArray())
            plan.addRule(ruleFromJson(r));
    }
    return plan;
}

FaultPlan
loadFaultPlanFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault plan '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();

    JsonValue doc;
    std::string error;
    if (!parseJson(text.str(), doc, error))
        fatal("fault plan '%s': %s", path.c_str(), error.c_str());
    try {
        return faultPlanFromJson(doc);
    } catch (const JsonError &e) {
        fatal("fault plan '%s': %s", path.c_str(), e.what());
    }
}

} // namespace pvar
