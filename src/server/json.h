// The repository's one JSON value type: the serving protocol parses
// requests and renders responses with it, and every bench binary writes
// its BENCH_*.json file through it (bench/bench_common.h).
//
// The parser is strict because request bodies are untrusted:
//
//   - full document consumption (trailing bytes are an error),
//   - a nesting-depth limit (malicious deeply nested arrays cannot blow
//     the stack),
//   - numbers split into Int (fits long long, no fraction/exponent) and
//     Double, so protocol counters round-trip exactly,
//   - strings with the standard escapes incl. \uXXXX (+ surrogate pairs).
//
// dump() always writes JSON, on ONE line: every control character is
// escaped, doubles print with 17 significant digits (they parse back to
// the same value), and NaN/Inf print as null. The newline-delimited
// framing of the protocol depends on responses never containing a raw
// newline.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace formad::server {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() = default;  // null

  [[nodiscard]] static JsonValue null() { return JsonValue(); }
  [[nodiscard]] static JsonValue boolean(bool v);
  [[nodiscard]] static JsonValue integer(long long v);
  [[nodiscard]] static JsonValue number(double v);
  [[nodiscard]] static JsonValue str(std::string v);
  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }

  // Accessors assert the kind via FORMAD_ASSERT (protocol code checks
  // kind() first; a kind mismatch is a server bug, not a client error).
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] long long asInt() const;
  /// Numeric accessor for both Int and Double.
  [[nodiscard]] double asDouble() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& elements() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Array append; *this must be an array.
  JsonValue& push(JsonValue v);
  /// Object member set, insertion order preserved; *this must be an
  /// object. Re-setting a key overwrites in place.
  JsonValue& set(const std::string& key, JsonValue v);

  /// Compact single-line rendering (never contains '\n').
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  long long int_ = 0;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> elems_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON document spanning the whole of `text`. Throws
/// formad::Error (with the byte offset in the message) on malformed input,
/// trailing content, or nesting deeper than 64 levels.
[[nodiscard]] JsonValue parseJson(const std::string& text);

}  // namespace formad::server
