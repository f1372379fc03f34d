#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <type_traits>

namespace graphalign {
namespace {

// "a positive integer", "an integer in 1..1024", "a number in [0, 1]", ...
template <typename T>
std::string Describe(T min, T max, const char* unit) {
  constexpr bool kInteger = std::is_integral_v<T>;
  const T positive = kInteger ? T(1) : T(kPositive);
  const bool unbounded = max == std::numeric_limits<T>::max() ||
                         (kInteger && max == static_cast<T>(kMaxInt));
  std::ostringstream s;
  if (unbounded && (min == positive || min == T(0))) {
    s << (min == T(0) ? "a non-negative " : "a positive ")
      << (kInteger ? "integer" : "number");
  } else if (kInteger) {
    s << "an integer in " << min << ".." << max;
  } else if (min == positive) {
    s << "a number in (0, " << max << "]";
  } else {
    s << "a number in [" << min << ", " << max << "]";
  }
  if (unit != nullptr) s << " of " << unit;
  return s.str();
}

template <typename T>
Result<T> ParseNumber(const std::string& text, T min, T max,
                      const std::string& name, const char* unit) {
  errno = 0;
  char* end = nullptr;
  T v{};
  if constexpr (std::is_floating_point_v<T>) {
    v = std::strtod(text.c_str(), &end);
  } else if constexpr (std::is_signed_v<T>) {
    v = std::strtoll(text.c_str(), &end, 10);
  } else {
    v = std::strtoull(text.c_str(), &end, 10);
  }
  // strto* skip leading whitespace and read "" as nothing, and strtoull
  // reads "-1" as 2^64 - 1; a whole-string parse allows none of these.
  const bool clean = !text.empty() &&
                     !std::isspace(static_cast<unsigned char>(text[0])) &&
                     (std::is_signed_v<T> || text.find('-') == text.npos);
  if (!clean || *end != '\0' || errno == ERANGE ||
      !std::isfinite(static_cast<double>(v)) || v < min || v > max) {
    return Status::InvalidArgument(
        "invalid value '" + text + "'" + (name.empty() ? "" : " for " + name) +
        " (expected " + Describe(min, max, unit) + ")");
  }
  return v;
}

}  // namespace

Result<int64_t> ParseInt(const std::string& text, int64_t min, int64_t max,
                         const std::string& name) {
  return ParseNumber(text, min, max, name, nullptr);
}

Result<uint64_t> ParseUint64(const std::string& text, uint64_t min,
                             uint64_t max, const std::string& name) {
  return ParseNumber(text, min, max, name, nullptr);
}

Result<double> ParseDouble(const std::string& text, double min, double max,
                           const std::string& name, const char* unit) {
  return ParseNumber(text, min, max, name, unit);
}

FlagReader::FlagReader(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Fail(Status::InvalidArgument("unexpected positional argument: " + arg));
      return;
    }
    const bool bare =
        i + 1 == argc || std::string(argv[i + 1]).rfind("--", 0) == 0;
    entries_[arg.substr(2)] = Entry{bare ? "" : argv[++i], bare};
  }
}

bool FlagReader::Has(const std::string& key) { return Find(key) != nullptr; }

bool FlagReader::HasValue(const std::string& key) {
  const Entry* entry = Find(key);
  return entry != nullptr && !entry->bare;
}

bool FlagReader::Switch(const std::string& key) {
  const Entry* entry = Find(key);
  if (entry != nullptr && !entry->bare) {
    Fail(Status::InvalidArgument("--" + key + " takes no value, got '" +
                                 entry->value + "'"));
  }
  return entry != nullptr;
}

std::string FlagReader::String(const std::string& key,
                               const std::string& fallback) {
  const std::string* value = Value(key);
  return value == nullptr ? fallback : *value;
}

template <typename T>
T FlagReader::Number(const std::string& key, T fallback, T min, T max,
                     const char* unit) {
  const std::string* value = Value(key);
  if (value == nullptr) return fallback;
  Result<T> v = ParseNumber(*value, min, max, "--" + key, unit);
  if (!v.ok()) Fail(v.status());
  return v.ok() ? *v : fallback;
}

int FlagReader::Int(const std::string& key, int fallback, int min, int max) {
  return static_cast<int>(
      Number<int64_t>(key, fallback, min, max, /*unit=*/nullptr));
}

uint64_t FlagReader::Uint64(const std::string& key, uint64_t fallback,
                            uint64_t min, uint64_t max) {
  return Number(key, fallback, min, max, /*unit=*/nullptr);
}

double FlagReader::Double(const std::string& key, double fallback, double min,
                          double max, const char* unit) {
  return Number(key, fallback, min, max, unit);
}

std::vector<std::string> FlagReader::Unread() const {
  std::vector<std::string> keys;
  for (const auto& [key, entry] : entries_) {
    if (!entry.read) keys.push_back("--" + key);
  }
  return keys;
}

FlagReader::Entry* FlagReader::Find(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

const std::string* FlagReader::Value(const std::string& key) {
  const Entry* entry = Find(key);
  if (entry != nullptr && entry->bare) {
    Fail(Status::InvalidArgument("missing value for --" + key));
    return nullptr;
  }
  return entry == nullptr ? nullptr : &entry->value;
}

void FlagReader::Fail(const Status& status) {
  if (status_.ok()) status_ = status;
}

}  // namespace graphalign
