#include "util/cli.h"

#include <limits>
#include <stdexcept>

#include "util/parse.h"

namespace mecar::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string key = arg.substr(2);
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      flags_[key.substr(0, eq)] = key.substr(eq + 1);
    } else {
      flags_[key] = "";  // boolean flag; values require --key=value
    }
  }
}

bool Cli::has(const std::string& key) const {
  return flags_.contains(key);
}

std::optional<std::string> Cli::get(const std::string& key) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key, std::string fallback) const {
  const auto v = get(key);
  return v ? *v : std::move(fallback);
}

std::int64_t Cli::get_int_or(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  // Strict: the whole value must be an integer — "12abs" used to silently
  // truncate to 12 under std::stoll.
  if (const auto parsed = parse_int(*v)) return *parsed;
  throw std::invalid_argument("flag --" + key + " expects an integer, got '" +
                              *v + "'");
}

double Cli::get_double_or(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  if (const auto parsed = parse_double(*v)) return *parsed;
  throw std::invalid_argument("flag --" + key + " expects a number, got '" +
                              *v + "'");
}

bool Cli::get_bool_or(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  throw std::invalid_argument("flag --" + key + " expects a boolean, got '" +
                              *v + "'");
}

namespace {

/// Integer flag `key` (absent or empty = `fallback`), checked against the
/// range of T before any narrowing.
template <typename T>
T ranged_flag(const Cli& cli, const std::string& key, T fallback) {
  const std::int64_t v = cli.get_int_or(key, fallback);
  if (v < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
      v > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
    throw std::invalid_argument("flag --" + key + " is out of range: '" +
                                cli.get_or(key, "") + "'");
  }
  return static_cast<T>(v);
}

}  // namespace

int int_flag(const Cli& cli, const std::string& key, int fallback) {
  return ranged_flag<int>(cli, key, fallback);
}

unsigned unsigned_flag(const Cli& cli, const std::string& key,
                       unsigned fallback) {
  return ranged_flag<unsigned>(cli, key, fallback);
}

}  // namespace mecar::util
