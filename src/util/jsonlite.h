// Minimal JSON support shared by every writer in the repo (trace, metrics,
// profile, audit) plus a small recursive-descent parser for the validators
// and round-trip tests.
//
// The escaping helpers are the single source of truth for JSON string
// hygiene: converter-generated op labels can contain arbitrary user layer
// names (quotes, backslashes, control bytes), and every writer must route
// them through json_escape so the emitted documents stay loadable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace t2c::jsonlite {

/// Escapes `s` for embedding inside a JSON string literal: quote,
/// backslash, the two-character escapes (\b \f \n \r \t), and \u00XX for
/// the remaining control bytes. Non-ASCII bytes pass through untouched
/// (the writers emit UTF-8).
std::string json_escape(const std::string& s);

/// Compact, locale-independent number rendering for stable JSON output.
/// Non-finite values render as 0 (JSON has no NaN/Inf).
std::string json_num(double v);

/// Parsed JSON value. Numbers are kept as doubles (every number the repo
/// emits fits); objects preserve no duplicate keys (last one wins).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member access; throws when this is not an object or the key
  /// is absent.
  const JsonValue& at(const std::string& key) const;
  /// True when this is an object holding `key`.
  bool has(const std::string& key) const;
};

/// Deepest container nesting parse_json accepts. The parser recurses once
/// per level, so the limit keeps a hostile document from exhausting the
/// stack; the repo's own documents nest a few levels.
inline constexpr int kMaxJsonDepth = 512;

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws t2c::Error with a byte offset on malformed
/// input or nesting deeper than kMaxJsonDepth — exactly what the
/// emitted-artifact validators need.
JsonValue parse_json(const std::string& text);

}  // namespace t2c::jsonlite
