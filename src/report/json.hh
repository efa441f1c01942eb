/**
 * @file
 * Minimal JSON emission and parsing.
 *
 * The library deliberately avoids external dependencies, so this is a
 * small hand-rolled implementation: a streaming JsonWriter value
 * builder plus canned serializers for the result types downstream
 * tooling wants to ingest (plotting scripts, dashboards, the
 * crowdsourcing backend), and a JsonValue document tree with a
 * recursive-descent parser so device specs and fleet files round-trip
 * from disk (see report/spec_json.hh).
 */

#ifndef PVAR_REPORT_JSON_HH
#define PVAR_REPORT_JSON_HH

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accubench/protocol.hh"
#include "accubench/result.hh"

namespace pvar
{

/**
 * Thrown when a JSON document is malformed or does not match the
 * schema being decoded (wrong type, missing key, unknown name).
 *
 * Long-running consumers (the pvar_served study service) catch it and
 * answer HTTP 400; the CLI surface (loadFleetFile) converts it into a
 * fatal() that names the offending file.
 */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A streaming JSON writer with automatic comma management.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("name").value("SD-800");
 *   w.key("units").beginArray();
 *   w.value(1.0).value(2.0);
 *   w.endArray();
 *   w.endObject();
 *   std::string out = w.str();
 */
class JsonWriter
{
  public:
    JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key (must be inside an object). */
    JsonWriter &key(const std::string &k);

    /** @name Scalar values. @{ */
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(int v);
    JsonWriter &value(long long v);
    JsonWriter &value(bool v);
    JsonWriter &null();
    /** @} */

    /**
     * Emit pre-rendered JSON as the next value (comma management
     * still applies). Used with jsonExactDouble() where value(double)
     * 's fixed %.10g would lose precision.
     */
    JsonWriter &rawValue(const std::string &json);

    /** The document so far. */
    const std::string &str() const { return _out; }

  private:
    std::string _out;
    // Stack of "needs a comma before the next element" flags.
    std::vector<bool> _needComma;

    void preValue();
    void appendEscaped(const std::string &s);
};

/**
 * Render a double with the fewest significant digits that parse back
 * to the exact same value (tries %.15g, %.16g, %.17g). Guarantees
 * serialize -> parse round-trips bit-exactly; used by the spec
 * serializer.
 */
std::string jsonExactDouble(double v);

/**
 * A parsed JSON document node.
 *
 * A tagged union over the six JSON types. Objects keep their members
 * in document order (a sorted map would re-order round-tripped
 * specs). Accessors throw JsonError on type mismatch — parsing user
 * input should fail loudly, not propagate defaults — and callers
 * decide whether that is fatal (CLI) or a 400 response (service).
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() : _type(Type::Null) {}
    explicit JsonValue(bool b) : _type(Type::Bool), _bool(b) {}
    explicit JsonValue(double n) : _type(Type::Number), _number(n) {}
    explicit JsonValue(std::string s)
        : _type(Type::String), _string(std::move(s)) {}

    /** @name Type tests. @{ */
    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isBool() const { return _type == Type::Bool; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }
    /** @} */

    /** @name Checked accessors (throw JsonError on mismatch). @{ */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::vector<Member> &asObject() const;
    /** @} */

    /** Object member by key, or nullptr when absent / not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member by key; throws JsonError when absent. */
    const JsonValue &at(const std::string &key) const;

    /** @name Builders (switch the node to the target type). @{ */
    static JsonValue makeArray();
    static JsonValue makeObject();
    void append(JsonValue v);
    void set(const std::string &key, JsonValue v);
    /** @} */

  private:
    Type _type;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<JsonValue> _array;
    std::vector<Member> _object;
};

/**
 * A JSON number as the integer type T, or nullopt unless @p d is a
 * whole number in [@p min, the largest T]. The range is tested on the
 * double before the cast, because converting an out-of-range double
 * to an integer is undefined behaviour. Callers throw their own
 * JsonError naming the field.
 */
template <typename T>
std::optional<T>
jsonInteger(double d, T min)
{
    // 2^digits is the first whole number past max(); a power of two,
    // it is exact as a double for every integer type.
    const double past_max =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!(d >= static_cast<double>(min) && d < past_max) ||
        d != std::trunc(d))
        return std::nullopt;
    return static_cast<T>(d);
}

/**
 * Parse a complete JSON document. Returns false and sets @p error
 * (with the 1-based line and column plus the byte offset of the first
 * failure) on malformed input; trailing non-whitespace after the
 * document is an error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/** Serialize one experiment result (scores, energies, durations). */
std::string toJson(const ExperimentResult &result);

/** Serialize one SoC study (per-unit outcomes + reductions). */
std::string toJson(const SocStudy &study);

/** Serialize a whole multi-SoC study. */
std::string toJson(const std::vector<SocStudy> &studies);

} // namespace pvar

#endif // PVAR_REPORT_JSON_HH
