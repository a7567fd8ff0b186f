// Streaming JSON emission shared by every snapshot writer in the tree
// (BENCH_resilience.json, exp::Report snapshots).
//
// The hand-rolled per-bench writers each re-invented string quoting and
// number formatting, and none escaped strings at all — a policy label with
// a quote or backslash produced invalid JSON. JsonWriter centralizes both:
// strings are escaped per RFC 8259, doubles are printed with the shortest
// representation that round-trips (integral values print without a
// fractional part), and nesting/comma bookkeeping is automatic.
//
//   util::JsonWriter w(os);
//   w.begin_object();
//   w.key("threads").value(8);
//   w.key("entries").begin_array();
//   w.begin_object().key("name").value("fig4").end_object();
//   w.end_array();
//   w.end_object();  // emits a trailing newline at depth 0
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mecar::util {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included): ", \, control characters -> \uXXXX / short escapes.
std::string json_escape(std::string_view s);

/// Formats a double as a JSON number: integral values without a fractional
/// part, everything else with the shortest precision that parses back to
/// the same double. Non-finite values (JSON has none) emit null.
std::string json_number(double value);

/// Minimal streaming JSON writer with automatic commas and indentation.
/// Misuse (value without key inside an object, unbalanced end_*) throws
/// std::logic_error — a malformed snapshot should fail loudly, not ship.
class JsonWriter {
 public:
  /// Writes to `os`; `indent` spaces per nesting level (0 = compact).
  explicit JsonWriter(std::ostream& os, int indent = 2);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; the next value/begin_* attaches to it.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& null();

  /// Convenience: key(name).value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// True once the single top-level value is complete.
  bool done() const noexcept { return done_; }

 private:
  enum class Ctx { kObject, kArray };
  struct Level {
    Ctx ctx;
    bool any = false;       // wrote at least one element
    bool key_open = false;  // object: key emitted, value pending
  };

  void before_value();
  void newline_indent();
  void raw(std::string_view text);

  std::ostream& os_;
  int indent_;
  std::vector<Level> stack_;
  bool done_ = false;
};

}  // namespace mecar::util
