/**
 * @file
 * Tests for the JSON layer in src/report/json: the JsonValue tree,
 * parseJson(), and the exact-double formatter used by the spec
 * serializer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "report/json.hh"

using namespace pvar;

namespace
{

JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error)) << text << ": " << error;
    return v;
}

std::string
parseFail(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(text, v, error)) << text;
    EXPECT_FALSE(error.empty()) << text;
    return error;
}

} // namespace

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_EQ(parseOk("true").asBool(), true);
    EXPECT_EQ(parseOk("false").asBool(), false);
    EXPECT_EQ(parseOk("0").asNumber(), 0.0);
    EXPECT_EQ(parseOk("-17").asNumber(), -17.0);
    EXPECT_EQ(parseOk("3.25").asNumber(), 3.25);
    EXPECT_EQ(parseOk("2.6e9").asNumber(), 2.6e9);
    EXPECT_EQ(parseOk("4.5e-10").asNumber(), 4.5e-10);
    EXPECT_EQ(parseOk("  42  ").asNumber(), 42.0);
}

TEST(JsonParse, Strings)
{
    EXPECT_EQ(parseOk("\"\"").asString(), "");
    EXPECT_EQ(parseOk("\"SD-820\"").asString(), "SD-820");
    EXPECT_EQ(parseOk(R"("a\"b\\c\/d")").asString(), "a\"b\\c/d");
    EXPECT_EQ(parseOk(R"("line\nbreak\ttab")").asString(),
              "line\nbreak\ttab");
    // BMP escape and a surrogate pair (U+1F600).
    EXPECT_EQ(parseOk(R"("µs")").asString(), "\xc2\xb5s");
    EXPECT_EQ(parseOk(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(JsonParse, Arrays)
{
    JsonValue v = parseOk("[1, [2, 3], \"x\", true, null]");
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.asArray().size(), 5u);
    EXPECT_EQ(v.asArray()[0].asNumber(), 1.0);
    EXPECT_EQ(v.asArray()[1].asArray()[1].asNumber(), 3.0);
    EXPECT_EQ(v.asArray()[2].asString(), "x");
    EXPECT_TRUE(v.asArray()[4].isNull());

    EXPECT_TRUE(parseOk("[]").asArray().empty());
}

TEST(JsonParse, ObjectsPreserveOrder)
{
    JsonValue v = parseOk(R"({"z": 1, "a": {"nested": [2]}, "m": 3})");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.asObject().size(), 3u);
    EXPECT_EQ(v.asObject()[0].first, "z");
    EXPECT_EQ(v.asObject()[1].first, "a");
    EXPECT_EQ(v.asObject()[2].first, "m");

    EXPECT_EQ(v.at("m").asNumber(), 3.0);
    EXPECT_EQ(v.at("a").at("nested").asArray()[0].asNumber(), 2.0);
    EXPECT_EQ(v.find("missing"), nullptr);
    ASSERT_NE(v.find("z"), nullptr);

    EXPECT_TRUE(parseOk("{}").asObject().empty());
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    parseFail("");
    parseFail("   ");
    parseFail("tru");
    parseFail("nul");
    parseFail("{");
    parseFail("[1, 2");
    parseFail("[1 2]");
    parseFail(R"({"a" 1})");
    parseFail(R"({"a": 1,})");
    parseFail("[1,]");
    parseFail("'single'");
    parseFail("\"unterminated");
    parseFail(R"("bad \x escape")");
    parseFail(R"("\u12")");
    parseFail("\"raw\ncontrol\"");
    // Numbers must follow the JSON grammar (leading zeros are the one
    // documented laxity).
    EXPECT_EQ(parseOk("01").asNumber(), 1.0);
    parseFail("+1");
    parseFail(".5");
    parseFail("1.");
    parseFail("1e");
    parseFail("NaN");
    parseFail("Infinity");
    // Trailing garbage after a complete value.
    parseFail("1 2");
    parseFail("{} {}");
    parseFail("null x");
}

TEST(JsonParse, DepthLimit)
{
    // 64 nested arrays parse; 70 overflow the recursion guard.
    std::string ok(64, '[');
    ok += std::string(64, ']');
    parseOk(ok);

    std::string deep(70, '[');
    deep += std::string(70, ']');
    std::string error = parseFail(deep);
    EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(JsonParse, ErrorsCarryPosition)
{
    // The failing token sits at byte offset 4: line 1, column 5.
    std::string error = parseFail("[1, oops]");
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find("column 5"), std::string::npos) << error;
    EXPECT_NE(error.find("offset 4"), std::string::npos) << error;

    // Multi-line documents report the line of the failure, not 1.
    error = parseFail("{\n  \"a\": 1,\n  \"b\": oops\n}");
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("column 8"), std::string::npos) << error;
}

TEST(JsonValueAccessors, ThrowJsonErrorOnMismatch)
{
    JsonValue v = parseOk(R"({"a": 1})");
    EXPECT_THROW(v.asArray(), JsonError);
    EXPECT_THROW(v.asString(), JsonError);
    EXPECT_THROW(v.at("missing"), JsonError);
    EXPECT_THROW(v.at("a").asString(), JsonError);
    EXPECT_EQ(v.at("a").asNumber(), 1.0);

    // The message names both the wanted and the actual type.
    try {
        v.at("a").asString();
        FAIL() << "expected JsonError";
    } catch (const JsonError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("string"), std::string::npos) << what;
        EXPECT_NE(what.find("number"), std::string::npos) << what;
    }
}

TEST(JsonInteger, RangeCheckedBeforeConversion)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(jsonInteger<int>(2147483647.0, 0), 2147483647);
    EXPECT_EQ(jsonInteger<int>(-5.0, -5), -5);
    EXPECT_FALSE(jsonInteger<int>(2147483648.0, 0));
    EXPECT_FALSE(jsonInteger<int>(1e10, 1));
    EXPECT_FALSE(jsonInteger<int>(-1e300, 1));
    EXPECT_FALSE(jsonInteger<int>(1.5, 1));
    EXPECT_FALSE(jsonInteger<int>(0.0, 1));
    EXPECT_FALSE(jsonInteger<int>(inf, 0));
    EXPECT_FALSE(jsonInteger<int>(std::nan(""), 0));

    using u64 = std::uint64_t;
    EXPECT_EQ(jsonInteger<u64>(9007199254740992.0, 0), 9007199254740992u);
    EXPECT_EQ(jsonInteger<u64>(-0.0, 0), 0u);
    EXPECT_FALSE(jsonInteger<u64>(18446744073709551616.0, 0));
    EXPECT_FALSE(jsonInteger<u64>(1e30, 0));
    EXPECT_FALSE(jsonInteger<u64>(-1.0, 0));
}

TEST(JsonWriterTest, RawValueEmbedsVerbatim)
{
    JsonWriter w;
    w.beginObject();
    w.key("x").rawValue("0.1");
    w.key("n").value(static_cast<long long>(1234567890123LL));
    w.endObject();
    EXPECT_EQ(w.str(), "{\"x\":0.1,\"n\":1234567890123}");
}

TEST(JsonExactDouble, RoundTripsAwkwardValues)
{
    const double values[] = {
        0.0,      1.0,        0.1,       2.2,          1.0 / 3.0,
        1e-9,     4.5e-10,    2.6e9,     0.008,        1574.0,
        0.000123, 1.05,       -0.70,     8.7,          3.85,
        0.022,    1e300,      5e-324,    123456.789012345,
    };
    for (double v : values) {
        std::string s = jsonExactDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(JsonExactDouble, PrefersShortForms)
{
    // Values exactly representable at %.15g stay short.
    EXPECT_EQ(jsonExactDouble(0.1), "0.1");
    EXPECT_EQ(jsonExactDouble(1574.0), "1574");
    EXPECT_EQ(jsonExactDouble(-0.25), "-0.25");
}

TEST(JsonExactDouble, ParsesBackThroughParser)
{
    // The formatter and parser must agree bit-for-bit.
    const double values[] = {1.0 / 3.0, 0.1 + 0.2, 2.6e9, 5e-324};
    for (double v : values) {
        JsonValue parsed = parseOk(jsonExactDouble(v));
        EXPECT_EQ(parsed.asNumber(), v);
    }
}

namespace
{

/**
 * Reference rendering through stdio: the shortest of %.15g, %.16g and
 * %.17g that strtod parses back to @p v. Stored cache keys and report
 * bytes are defined by it, so jsonExactDouble() must match it byte
 * for byte.
 */
std::string
referenceExactDouble(double v)
{
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

TEST(JsonExactDouble, MatchesStdioReferenceOnRandomDoubles)
{
    // Half raw bit patterns (mostly 17-digit renderings), half short
    // decimals across the exponent range (15- and 16-digit ones).
    std::mt19937_64 rng(20261016);
    std::uniform_int_distribution<int> digits(1, 17);
    std::uniform_int_distribution<int> exponent(-40, 40);
    std::size_t checked = 0;
    for (int i = 0; i < 500000; ++i) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v))
            continue;
        ASSERT_EQ(jsonExactDouble(v), referenceExactDouble(v));
        ++checked;
    }
    for (int i = 0; i < 500000; ++i) {
        std::string text = std::to_string(rng() % 100000000000000000ull)
                               .substr(0, static_cast<std::size_t>(
                                              digits(rng))) +
                           "e" + std::to_string(exponent(rng));
        double v = std::strtod(text.c_str(), nullptr);
        if (rng() & 1)
            v = -v;
        ASSERT_EQ(jsonExactDouble(v), referenceExactDouble(v)) << text;
        ++checked;
    }
    EXPECT_GE(checked, 990000u);
}

TEST(JsonExactDouble, MatchesStdioReferenceOnEdgeCases)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308, // largest subnormal
        1.5e-315,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
    };
    // %g switches between fixed and exponent form below 1e-4 and at
    // 1e15, 1e16 and 1e17 for precisions 15, 16 and 17: check powers
    // of ten and their neighbours on both sides of every switch.
    for (int e : {-7, -6, -5, -4, -3, 13, 14, 15, 16, 17, 18, 19}) {
        double p = std::pow(10.0, e);
        for (double v : {p, std::nextafter(p, 0.0),
                         std::nextafter(p, HUGE_VAL), 0.99999999999999 * p,
                         9.999999999999999 * p / 10.0})
            values.push_back(v);
    }
    for (double v : std::vector<double>(values)) {
        values.push_back(-v);
        if (v != 0.0)
            values.push_back(v / 3.0);
    }
    for (double v : values)
        EXPECT_EQ(jsonExactDouble(v), referenceExactDouble(v)) << v;
}

// ---------------------------------------------------------------------
// Hardening corpus: the parser fronts the network service, so every
// malformed document must produce a positioned error — never a crash,
// a hang, or an unbounded allocation.
// ---------------------------------------------------------------------

TEST(JsonParseHardening, EveryTruncationFailsWithPosition)
{
    // A realistic request/fleet-style document exercising every
    // construct: nested objects and arrays, escapes, unicode,
    // exponents, booleans, null. No trailing whitespace, so every
    // strict prefix is incomplete.
    const std::string doc =
        "{\"device\": \"SD-805:unit-b\",\n"
        " \"iterations\": 5,\n"
        " \"ambient_c\": 2.6e1,\n"
        " \"tags\": [\"a\\\"b\", \"\\u00b5s\", null, true, -0.5],\n"
        " \"nested\": {\"deep\": [[1, 2], {\"x\": []}]}}";
    parseOk(doc);

    for (std::size_t len = 0; len < doc.size(); ++len) {
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(doc.substr(0, len), v, error))
            << "prefix of " << len << " bytes parsed";
        EXPECT_NE(error.find("line"), std::string::npos)
            << "no position in: " << error;
    }
}

TEST(JsonParseHardening, GarbageCorpusNeverCrashes)
{
    const std::string corpus[] = {
        std::string("\x00\x01\x02\x03", 4),     // control bytes
        std::string("\xff\xfe{\"a\": 1}"),      // UTF-16 BOM-ish prefix
        "\xef\xbb\xbf{}",                        // UTF-8 BOM
        "{\"a\": 0x10}",                         // hex number
        "{\"a\": NaN}",                          // non-JSON literal
        "{\"a\": Infinity}",
        "{\"a\": +1}",
        "{\"a\": .5}",
        "{\"a\": 1.}",
        "[1, 2,]",                               // trailing comma
        "{\"a\": 1,}",
        "{'a': 1}",                              // single quotes
        "{a: 1}",                                // bare key
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"half unicode \\u12\"",
        "\"\\",                                  // backslash at EOF
        "[}",                                    // mismatched brackets
        "{]",
        "]",
        "}",
        ",",
        ":",
        "--1",
        "1 2 3",
        "{\"dup\": 1 \"missing comma\": 2}",
        std::string("{\"a\"") + std::string(4096, ' '), // long padding
    };

    for (const std::string &text : corpus) {
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(text, v, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JsonParseHardening, DeepNestingFailsGracefully)
{
    // Way past the recursion guard, in each nesting flavor: the
    // parser must refuse without exhausting the stack.
    for (const char *open_close : {"[]", "{}"}) {
        std::string deep;
        for (int i = 0; i < 100000; ++i) {
            deep += open_close[0];
            if (open_close[0] == '{')
                deep += "\"k\":";
        }
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(deep, v, error));
        EXPECT_NE(error.find("deep"), std::string::npos) << error;
    }
}
