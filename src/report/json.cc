#include "report/json.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

JsonWriter::JsonWriter()
{
    _needComma.push_back(false);
}

void
JsonWriter::preValue()
{
    if (_needComma.back())
        _out += ',';
    _needComma.back() = true;
}

void
JsonWriter::appendEscaped(const std::string &s)
{
    _out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            _out += "\\\"";
            break;
          case '\\':
            _out += "\\\\";
            break;
          case '\n':
            _out += "\\n";
            break;
          case '\t':
            _out += "\\t";
            break;
          case '\r':
            _out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                _out += strfmt("\\u%04x", c);
            else
                _out += c;
        }
    }
    _out += '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    _out += '{';
    _needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (_needComma.size() < 2)
        panic("JsonWriter: endObject with no open container");
    _needComma.pop_back();
    _out += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    _out += '[';
    _needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (_needComma.size() < 2)
        panic("JsonWriter: endArray with no open container");
    _needComma.pop_back();
    _out += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    preValue();
    appendEscaped(k);
    _out += ':';
    // The value following a key must not emit another comma.
    _needComma.back() = false;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    preValue();
    appendEscaped(v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    if (std::isfinite(v))
        _out += strfmt("%.10g", v);
    else
        _out += "null"; // JSON has no NaN/Inf
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    preValue();
    _out += strfmt("%d", v);
    return *this;
}

JsonWriter &
JsonWriter::value(long long v)
{
    preValue();
    _out += strfmt("%lld", v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    _out += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    preValue();
    _out += "null";
    return *this;
}

JsonWriter &
JsonWriter::rawValue(const std::string &json)
{
    preValue();
    _out += json;
    return *this;
}

std::string
jsonExactDouble(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Inf
    // to_chars(general, prec) is specified as printf("%.*g") in the C
    // locale and from_chars as a correctly rounded strtod, so this is
    // the shortest of %.15g, %.16g and %.17g that parses back to v,
    // without the formatting and locale overhead of the stdio pair.
    char buf[32];
    std::to_chars_result r{};
    for (int prec = 15; prec <= 17; ++prec) {
        r = std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, prec);
        double back = 0.0;
        std::from_chars(buf, r.ptr, back);
        if (back == v)
            break;
    }
    // 17 significant digits always round-trip a double.
    return std::string(buf, r.ptr);
}

namespace
{

const char *
typeName(JsonValue::Type t)
{
    switch (t) {
      case JsonValue::Type::Null:
        return "null";
      case JsonValue::Type::Bool:
        return "bool";
      case JsonValue::Type::Number:
        return "number";
      case JsonValue::Type::String:
        return "string";
      case JsonValue::Type::Array:
        return "array";
      case JsonValue::Type::Object:
        return "object";
    }
    return "?";
}

[[noreturn]] void
typeError(const char *wanted, JsonValue::Type got)
{
    throw JsonError(
        strfmt("expected %s, got %s", wanted, typeName(got)));
}

} // namespace

bool
JsonValue::asBool() const
{
    if (_type != Type::Bool)
        typeError("bool", _type);
    return _bool;
}

double
JsonValue::asNumber() const
{
    if (_type != Type::Number)
        typeError("number", _type);
    return _number;
}

const std::string &
JsonValue::asString() const
{
    if (_type != Type::String)
        typeError("string", _type);
    return _string;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (_type != Type::Array)
        typeError("array", _type);
    return _array;
}

const std::vector<JsonValue::Member> &
JsonValue::asObject() const
{
    if (_type != Type::Object)
        typeError("object", _type);
    return _object;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (_type != Type::Object)
        return nullptr;
    for (const Member &m : _object) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throw JsonError(strfmt("missing key '%s'", key.c_str()));
    return *v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v._type = Type::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v._type = Type::Object;
    return v;
}

void
JsonValue::append(JsonValue v)
{
    if (_type != Type::Array)
        fatal("JsonValue: append on non-array");
    _array.push_back(std::move(v));
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    if (_type != Type::Object)
        fatal("JsonValue: set on non-object");
    for (Member &m : _object) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    _object.emplace_back(key, std::move(v));
}

namespace
{

/**
 * Recursive-descent JSON parser. Strict: no comments, no trailing
 * commas, numbers per the JSON grammar only. Depth-limited so a
 * hostile file can't blow the stack.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &text) : _text(text) {}

    bool
    parse(JsonValue &out, std::string &error)
    {
        _pos = 0;
        _error.clear();
        if (!parseValue(out, 0)) {
            error = positioned(_errorPos, _error);
            return false;
        }
        skipWhitespace();
        if (_pos != _text.size()) {
            error = positioned(_pos, "trailing garbage");
            return false;
        }
        return true;
    }

  private:
    static constexpr int maxDepth = 64;

    const std::string &_text;
    std::size_t _pos = 0;
    std::size_t _errorPos = 0;
    std::string _error;

    bool
    fail(const std::string &why)
    {
        if (_error.empty()) {
            _error = why;
            _errorPos = _pos;
        }
        return false;
    }

    /**
     * Prefix @p why with the human-facing position of @p pos: the
     * 1-based line and column (what editors show) plus the raw byte
     * offset.
     */
    std::string
    positioned(std::size_t pos, const std::string &why) const
    {
        std::size_t line = 1;
        std::size_t bol = 0; // offset of the erroring line's start
        for (std::size_t i = 0; i < pos && i < _text.size(); ++i) {
            if (_text[i] == '\n') {
                ++line;
                bol = i + 1;
            }
        }
        return strfmt(
            "JSON parse error at line %zu, column %zu (offset %zu): %s",
            line, pos - bol + 1, pos, why.c_str());
    }

    void
    skipWhitespace()
    {
        while (_pos < _text.size()) {
            char c = _text[_pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++_pos;
        }
    }

    bool
    consume(char expected)
    {
        if (_pos < _text.size() && _text[_pos] == expected) {
            ++_pos;
            return true;
        }
        return fail(strfmt("expected '%c'", expected));
    }

    bool
    consumeKeyword(const char *kw)
    {
        std::size_t len = std::char_traits<char>::length(kw);
        if (_text.compare(_pos, len, kw) != 0)
            return fail(strfmt("expected '%s'", kw));
        _pos += len;
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWhitespace();
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        switch (_text[_pos]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"': {
              std::string s;
              if (!parseString(s))
                  return false;
              out = JsonValue(std::move(s));
              return true;
          }
          case 't':
            if (!consumeKeyword("true"))
                return false;
            out = JsonValue(true);
            return true;
          case 'f':
            if (!consumeKeyword("false"))
                return false;
            out = JsonValue(false);
            return true;
          case 'n':
            if (!consumeKeyword("null"))
                return false;
            out = JsonValue();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out, int depth)
    {
        consume('{');
        out = JsonValue::makeObject();
        skipWhitespace();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            skipWhitespace();
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return false;
            JsonValue member;
            if (!parseValue(member, depth + 1))
                return false;
            out.set(key, std::move(member));
            skipWhitespace();
            if (_pos >= _text.size())
                return fail("unterminated object");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            return consume('}');
        }
    }

    bool
    parseArray(JsonValue &out, int depth)
    {
        consume('[');
        out = JsonValue::makeArray();
        skipWhitespace();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            JsonValue element;
            if (!parseValue(element, depth + 1))
                return false;
            out.append(std::move(element));
            skipWhitespace();
            if (_pos >= _text.size())
                return fail("unterminated array");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            return consume(']');
        }
    }

    bool
    parseHex4(unsigned &out)
    {
        if (_pos + 4 > _text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = _text[_pos + i];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= c - '0';
            else if (c >= 'a' && c <= 'f')
                out |= c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                out |= c - 'A' + 10;
            else
                return fail("bad \\u escape");
        }
        _pos += 4;
        return true;
    }

    void
    appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s += char(cp);
        } else if (cp < 0x800) {
            s += char(0xc0 | (cp >> 6));
            s += char(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            s += char(0xe0 | (cp >> 12));
            s += char(0x80 | ((cp >> 6) & 0x3f));
            s += char(0x80 | (cp & 0x3f));
        } else {
            s += char(0xf0 | (cp >> 18));
            s += char(0x80 | ((cp >> 12) & 0x3f));
            s += char(0x80 | ((cp >> 6) & 0x3f));
            s += char(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (true) {
            if (_pos >= _text.size())
                return fail("unterminated string");
            char c = _text[_pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                return fail("unterminated escape");
            char esc = _text[_pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  unsigned cp;
                  if (!parseHex4(cp))
                      return false;
                  // Surrogate pair?
                  if (cp >= 0xd800 && cp <= 0xdbff &&
                      _text.compare(_pos, 2, "\\u") == 0) {
                      std::size_t save = _pos;
                      _pos += 2;
                      unsigned lo;
                      if (!parseHex4(lo))
                          return false;
                      if (lo >= 0xdc00 && lo <= 0xdfff) {
                          cp = 0x10000 + ((cp - 0xd800) << 10) +
                               (lo - 0xdc00);
                      } else {
                          _pos = save; // lone high surrogate; keep as-is
                      }
                  }
                  appendUtf8(out, cp);
                  break;
              }
              default:
                return fail("bad escape character");
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        std::size_t digits = _pos;
        while (_pos < _text.size() && _text[_pos] >= '0' &&
               _text[_pos] <= '9')
            ++_pos;
        if (_pos == digits)
            return fail("invalid number");
        // JSON forbids leading zeros ("01"), but accepting them is
        // harmless for our own round-trip files.
        if (_pos < _text.size() && _text[_pos] == '.') {
            ++_pos;
            std::size_t frac = _pos;
            while (_pos < _text.size() && _text[_pos] >= '0' &&
                   _text[_pos] <= '9')
                ++_pos;
            if (_pos == frac)
                return fail("invalid number");
        }
        if (_pos < _text.size() &&
            (_text[_pos] == 'e' || _text[_pos] == 'E')) {
            ++_pos;
            if (_pos < _text.size() &&
                (_text[_pos] == '+' || _text[_pos] == '-'))
                ++_pos;
            std::size_t exp = _pos;
            while (_pos < _text.size() && _text[_pos] >= '0' &&
                   _text[_pos] <= '9')
                ++_pos;
            if (_pos == exp)
                return fail("invalid number");
        }
        std::string token = _text.substr(start, _pos - start);
        out = JsonValue(std::strtod(token.c_str(), nullptr));
        return true;
    }
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    return JsonParser(text).parse(out, error);
}

namespace
{

void
writeExperiment(JsonWriter &w, const ExperimentResult &r)
{
    w.beginObject();
    w.key("unit").value(r.unitId);
    w.key("model").value(r.model);
    w.key("soc").value(r.socName);
    w.key("mean_score").value(r.meanScore());
    w.key("score_rsd_percent").value(r.scoreRsdPercent());
    w.key("mean_workload_energy_j").value(
        r.meanWorkloadEnergy().value());
    w.key("energy_rsd_percent").value(r.energyRsdPercent());
    w.key("status").value(experimentStatusName(r.status));
    w.key("attempts").value(static_cast<long long>(r.attempts));
    w.key("quarantined").value(r.quarantined);
    w.key("iterations").beginArray();
    for (const auto &it : r.iterations) {
        w.beginObject();
        w.key("score").value(it.score);
        w.key("workload_energy_j").value(it.workloadEnergy.value());
        w.key("total_energy_j").value(it.totalEnergy.value());
        w.key("warmup_s").value(it.warmupTime.toSec());
        w.key("cooldown_s").value(it.cooldownTime.toSec());
        w.key("workload_s").value(it.workloadTime.toSec());
        w.key("start_temp_c").value(it.tempAtWorkloadStart.value());
        w.key("peak_temp_c").value(it.peakWorkloadTemp.value());
        w.key("cooldown_reached_target")
            .value(it.cooldownReachedTarget);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeStudy(JsonWriter &w, const SocStudy &s)
{
    w.beginObject();
    w.key("soc").value(s.socName);
    w.key("model").value(s.model);
    w.key("perf_variation_percent").value(s.perfVariationPercent);
    w.key("energy_variation_percent").value(s.energyVariationPercent);
    w.key("fixed_perf_spread_percent").value(s.fixedPerfSpreadPercent);
    w.key("mean_score_rsd_percent").value(s.meanScoreRsdPercent);
    w.key("efficiency_iter_per_wh").value(s.efficiencyIterPerWh);
    w.key("quarantined_units")
        .value(static_cast<long long>(s.quarantinedUnits));
    w.key("units").beginArray();
    for (const auto &u : s.units) {
        w.beginObject();
        w.key("unit").value(u.unitId);
        w.key("mean_score").value(u.meanScore);
        w.key("score_rsd_percent").value(u.scoreRsdPercent);
        w.key("mean_unconstrained_energy_j")
            .value(u.meanUnconstrainedEnergyJ);
        w.key("mean_fixed_energy_j").value(u.meanFixedEnergyJ);
        w.key("fixed_energy_rsd_percent")
            .value(u.fixedEnergyRsdPercent);
        w.key("mean_fixed_score").value(u.meanFixedScore);
        w.key("status_unconstrained")
            .value(experimentStatusName(u.unconstrainedStatus));
        w.key("attempts_unconstrained")
            .value(static_cast<long long>(u.unconstrainedAttempts));
        w.key("status_fixed")
            .value(experimentStatusName(u.fixedStatus));
        w.key("attempts_fixed")
            .value(static_cast<long long>(u.fixedAttempts));
        w.key("quarantined").value(u.quarantined);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

std::string
toJson(const ExperimentResult &result)
{
    JsonWriter w;
    writeExperiment(w, result);
    return w.str();
}

std::string
toJson(const SocStudy &study)
{
    JsonWriter w;
    writeStudy(w, study);
    return w.str();
}

std::string
toJson(const std::vector<SocStudy> &studies)
{
    JsonWriter w;
    w.beginArray();
    for (const auto &s : studies)
        writeStudy(w, s);
    w.endArray();
    return w.str();
}

} // namespace pvar
