// Minimal command-line flag parsing for the CLI tools and benches.
//
// Supports --key=value and --key value; everything else is a positional
// argument. No registration step — callers query typed getters with
// defaults, and can list unknown keys for error reporting.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace pup {

/// Parsed command line.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped).
  static Flags Parse(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// Typed getters; return `fallback` when the flag is absent. A numeric
  /// value must be the whole string: a decimal integer for GetInt, a
  /// finite decimal number for GetDouble, in range of the type. Anything
  /// else ("abc", "5x", "", overflow) also returns `fallback` and is
  /// recorded for MalformedFlags().
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Non-flag arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were provided but never queried — typo detection.
  std::vector<std::string> UnusedFlags() const;

  /// Numeric flags whose value failed to parse, as "--name=value"
  /// (sorted by name). Callers reject the command line when non-empty.
  std::vector<std::string> MalformedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  mutable std::set<std::string> malformed_;
  std::vector<std::string> positional_;
};

/// Whole-string numeric parsing, the rules Flags::GetInt / GetDouble
/// apply: false on junk, a partial parse ("5x"), an empty string, a value
/// out of the type's range, or (doubles) a non-finite value.
bool ParseInt64(const std::string& text, int64_t* out);
bool ParseFiniteDouble(const std::string& text, double* out);

/// Prints "malformed number --name=value" on stderr for each entry of
/// flags.MalformedFlags() and returns how many there were. A binary calls
/// it after its last numeric getter and exits non-zero when it is > 0.
size_t ReportMalformedFlags(const Flags& flags);

/// Sizes the global thread pool from the standard --threads flag
/// (default: hardware concurrency; --threads=1 restores exact serial
/// behavior). Call once at startup, before any parallel work runs.
void ApplyThreadsFlag(const Flags& flags);

/// Pins the SIMD kernel backend from the standard --simd flag
/// (auto|off|avx2|avx512; default auto = widest supported ISA,
/// --simd=off restores the exact scalar golden path). Aborts with a
/// diagnostic on unknown or unsupported values. Call once at startup,
/// before any kernel runs.
void ApplySimdFlag(const Flags& flags);

}  // namespace pup
