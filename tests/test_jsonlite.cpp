// jsonlite edge cases: escape/parse round trips over hostile strings,
// \uXXXX decoding to UTF-8, deeply nested containers and the nesting
// limit, number formatting and round-trips, and the parser's rejection
// diagnostics (these are what the artifact validators and t2c_perf_diff
// lean on).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "util/check.h"
#include "util/jsonlite.h"

namespace t2c::jsonlite {
namespace {

JsonValue roundtrip_str(const std::string& s) {
  return parse_json("\"" + json_escape(s) + "\"");
}

TEST(JsonliteTest, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  // Remaining control bytes become \u00XX; DEL (0x7f) passes through.
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(json_escape("\x7f"), "\x7f");
  // Non-ASCII (UTF-8) bytes pass through untouched.
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonliteTest, HostileStringRoundTrips) {
  const std::string hostile =
      "q\"uote back\\slash \b\f\n\r\t \x01\x02\x1f caf\xc3\xa9 end";
  EXPECT_EQ(roundtrip_str(hostile).str, hostile);
  // Embedded as an object key too (the metrics registry does this).
  const JsonValue doc =
      parse_json("{\"" + json_escape(hostile) + "\":1}");
  EXPECT_TRUE(doc.has(hostile));
}

TEST(JsonliteTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parse_json("\"\\u0041\"").str, "A");              // 1-byte
  EXPECT_EQ(parse_json("\"\\u00e9\"").str, "\xc3\xa9");       // 2-byte
  EXPECT_EQ(parse_json("\"\\u20ac\"").str, "\xe2\x82\xac");   // 3-byte
  EXPECT_EQ(parse_json("\"\\u0000\"").str, std::string(1, '\0'));
  // Uppercase hex digits are accepted.
  EXPECT_EQ(parse_json("\"\\u00E9\"").str, "\xc3\xa9");
  EXPECT_THROW(parse_json("\"\\u12g4\""), Error);  // bad hex digit
  EXPECT_THROW(parse_json("\"\\u12\""), Error);    // truncated
}

TEST(JsonliteTest, DeepNestingParses) {
  constexpr int kDepth = 200;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += "[";
  text += "42";
  for (int i = 0; i < kDepth; ++i) text += "]";
  JsonValue v = parse_json(text);
  const JsonValue* cur = &v;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(cur->is_array());
    ASSERT_EQ(cur->array.size(), 1u);
    cur = &cur->array[0];
  }
  EXPECT_EQ(cur->number, 42.0);

  // Alternating object/array nesting with whitespace noise.
  const JsonValue mixed =
      parse_json("{ \"a\" : [ { \"b\" : [ [ { \"c\" : null } ] ] } ] }");
  EXPECT_EQ(mixed.at("a").array[0].at("b").array[0].array[0].at("c").kind,
            JsonValue::Kind::kNull);
}

TEST(JsonliteTest, ExcessiveNestingThrows) {
  const auto nested = [](int depth, char open, char close) {
    std::string text;
    for (int i = 0; i < depth; ++i) {
      text += open;
      if (open == '{') text += "\"k\":";
    }
    text += "0";
    text += std::string(static_cast<std::size_t>(depth), close);
    return text;
  };
  // The limit itself parses; one level past it throws a diagnostic that
  // names the offending bracket's byte offset, for arrays and objects.
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth, '[', ']')));
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth, '{', '}')));
  for (const auto& [open, close, width] :
       {std::tuple{'[', ']', 1}, std::tuple{'{', '}', 5}}) {
    try {
      parse_json(nested(kMaxJsonDepth + 1, open, close));
      ADD_FAILURE() << "no throw for " << open;
    } catch (const Error& e) {
      const std::string want =
          "at byte " + std::to_string(kMaxJsonDepth * width);
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
  // Far deeper than any stack could recurse: still a diagnostic, no crash.
  EXPECT_THROW(parse_json(std::string(200000, '[')), Error);
}

TEST(JsonliteTest, NumberRoundTrips) {
  for (const double v : {0.0, 1.0, -1.5, 0.1, 1e-9, 6.25e7, 123456.789,
                         -2.5e-3, 1e300}) {
    const double back = parse_json(json_num(v)).number;
    if (v == 0.0) {
      EXPECT_EQ(back, 0.0);
    } else {
      // json_num renders %.9g: relative error bounded by the 9 digits.
      EXPECT_NEAR(back / v, 1.0, 1e-8) << v;
    }
  }
  // Non-finite values render as 0 (JSON has no NaN/Inf).
  EXPECT_EQ(json_num(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(json_num(std::numeric_limits<double>::infinity()), "0");
  // Exponents, signs, and integer forms parse.
  EXPECT_EQ(parse_json("-0.5e2").number, -50.0);
  EXPECT_EQ(parse_json("1E3").number, 1000.0);
  EXPECT_EQ(parse_json("-7").number, -7.0);
}

TEST(JsonliteTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{\"a\":1,}"), Error);     // trailing comma
  EXPECT_THROW(parse_json("[1 2]"), Error);          // missing comma
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("\"bad\\q\""), Error);     // unknown escape
  EXPECT_THROW(parse_json("{\"a\":1} extra"), Error);  // trailing garbage
  EXPECT_THROW(parse_json("1.2.3"), Error);          // malformed number
  EXPECT_THROW(parse_json("nul"), Error);
  EXPECT_THROW(parse_json("{1:2}"), Error);          // non-string key
  EXPECT_THROW(parse_json(std::string("\"raw\x01\"")), Error);
  // Diagnostics carry a byte offset for the validators' error messages.
  try {
    parse_json("[1, }");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonliteTest, ObjectSemantics) {
  // Duplicate keys: last one wins (documented in the header).
  EXPECT_EQ(parse_json("{\"k\":1,\"k\":2}").at("k").number, 2.0);
  const JsonValue v = parse_json("{\"a\":true,\"b\":false,\"c\":null}");
  EXPECT_TRUE(v.at("a").boolean);
  EXPECT_FALSE(v.at("b").boolean);
  EXPECT_EQ(v.at("c").kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(v.has("missing"));
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_THROW(parse_json("[]").at("k"), Error);  // at() on a non-object
  // Empty containers.
  EXPECT_TRUE(parse_json("{}").object.empty());
  EXPECT_TRUE(parse_json("[]").array.empty());
  EXPECT_TRUE(parse_json("  [ ]  ").array.empty());
}

}  // namespace
}  // namespace t2c::jsonlite
