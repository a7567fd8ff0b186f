// Minimal command-line flag parser for examples and bench drivers.
//
// Accepts flags of the form `--key=value` and boolean `--flag` (a bare flag
// never consumes the following token, so positionals stay unambiguous).
// Non-flag arguments are collected as positionals.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mecar::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True when `--key` was present (with or without a value).
  bool has(const std::string& key) const;

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Reads integer flag `key` as an int (absent or empty = `fallback`). A
/// value outside the int range throws std::invalid_argument naming the
/// flag, rather than being truncated.
int int_flag(const Cli& cli, const std::string& key, int fallback = 0);

/// Reads integer flag `key` as an unsigned (absent or empty = `fallback`).
/// A negative value or one above the unsigned range throws
/// std::invalid_argument naming the flag.
unsigned unsigned_flag(const Cli& cli, const std::string& key,
                       unsigned fallback = 0);

}  // namespace mecar::util
