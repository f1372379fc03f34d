// The one reader for numbers and flags that come from outside the program.
//
// Every command-line flag (the graphalign CLI, the bench binaries, loadgen),
// every numeric environment variable (GRAPHALIGN_THREADS,
// GRAPHALIGN_FAILPOINT_SEED) and every failpoint argument is read here, by
// the same rules: the whole string must be the number (no trailing junk, no
// leading whitespace, no sign wrap, no inf or nan) and it must lie in the
// range the caller passes. So `--level abc`, `--reps 5x` and `--seed -1`
// fail the same way everywhere, with a message that names the flag, the
// value and the accepted range.
#ifndef GRAPHALIGN_COMMON_FLAGS_H_
#define GRAPHALIGN_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace graphalign {

// The smallest double above zero: a lower bound of kPositive accepts
// exactly the values > 0.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();
inline constexpr double kMaxDouble = std::numeric_limits<double>::max();
inline constexpr int kMaxInt = std::numeric_limits<int>::max();
inline constexpr uint64_t kMaxUint64 = std::numeric_limits<uint64_t>::max();

// Whole-string parses of `text` into [min, max]. `name` (a flag such as
// "--reps", or an environment variable) goes into the error message, which
// reads "invalid value '5x' for --reps (expected a positive integer)".
// `unit`, when given, names what a double counts ("seconds").
Result<int64_t> ParseInt(const std::string& text, int64_t min, int64_t max,
                         const std::string& name = "");
Result<uint64_t> ParseUint64(const std::string& text, uint64_t min,
                             uint64_t max, const std::string& name = "");
Result<double> ParseDouble(const std::string& text, double min, double max,
                           const std::string& name = "",
                           const char* unit = nullptr);

// `--key value` and bare `--key` arguments. Each `--key` takes the next
// token as its value unless that token starts with "--", in which case the
// flag is bare; a token that is neither a flag nor a value is an error. A
// repeated flag keeps its last value. Every accessor marks its flag read
// (see Unread()).
//
// Getters return `fallback` when the flag is absent (the fallback is not
// range-checked, so it may be a sentinel such as -1). A malformed value, a
// value-taking flag given without one, or a switch given a value records an
// error and the getter returns `fallback`; only the first error is kept, so
// a command reads all its flags and then checks status() once.
class FlagReader {
 public:
  FlagReader(int argc, const char* const* argv, int start);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // True when --key was given, with or without a value.
  bool Has(const std::string& key);
  // True when --key was given with a value.
  bool HasValue(const std::string& key);
  // A flag that takes no value: true when given, an error when given one.
  bool Switch(const std::string& key);

  std::string String(const std::string& key,
                     const std::string& fallback = "");
  int Int(const std::string& key, int fallback, int min, int max);
  uint64_t Uint64(const std::string& key, uint64_t fallback,
                  uint64_t min = 0, uint64_t max = kMaxUint64);
  double Double(const std::string& key, double fallback, double min,
                double max, const char* unit = nullptr);

  // Flags that were given but never asked for, as "--key", sorted.
  std::vector<std::string> Unread() const;

 private:
  struct Entry {
    std::string value;
    bool bare = false;
    bool read = false;
  };

  // The entry for `key` (marked read), or nullptr when absent.
  Entry* Find(const std::string& key);
  template <typename T>
  T Number(const std::string& key, T fallback, T min, T max,
           const char* unit);
  // The value of a value-taking flag, or nullptr when absent or bare (a
  // bare one records an error).
  const std::string* Value(const std::string& key);
  void Fail(const Status& status);

  std::map<std::string, Entry> entries_;
  Status status_;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_FLAGS_H_
