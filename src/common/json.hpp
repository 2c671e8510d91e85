// Minimal JSON value model and recursive-descent parser.
//
// The campaign writes several JSON artifacts (manifest.json,
// telemetry.jsonl, checkpoint.json); checkpoint/resume is the first
// feature that must *read* one back.  This parser covers the full JSON
// grammar (objects, arrays, strings with escapes, numbers, literals) with
// two properties the checkpoint depends on:
//
//  * integral tokens (no '.', no exponent) are kept as exact int64 values
//    alongside the double, so 64-bit counters round-trip losslessly;
//  * parse failures are Status values, never exceptions or aborts -- a
//    truncated checkpoint.json (the process died mid-write before the
//    atomic rename existed, or a user edited it) must degrade to "start
//    fresh", not crash the campaign.
//
// Floating-point figures are not serialized as decimal JSON numbers at
// all: checkpoint.json stores doubles as 16-digit hex bit patterns (see
// core/checkpoint.cpp), because resume must reproduce byte-identical
// artifacts and a decimal round-trip is one ulp away from a diff.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace hbmvolt::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Exact value when the token was integral; `number` is always set too.
  std::int64_t integer = 0;
  bool is_integer = false;
  std::string string;
  std::vector<Value> items;  // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject, in order

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
};

/// Parses one JSON document (surrounding whitespace allowed; trailing
/// garbage is an error).
[[nodiscard]] Result<Value> parse(std::string_view text);

}  // namespace hbmvolt::json
