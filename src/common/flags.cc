#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace pup {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";  // Bare boolean flag.
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

// Parses all of `text` as a T; false on junk, a partial parse, or a
// value out of T's range.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool ParseInt64(const std::string& text, int64_t* out) {
  return ParseWhole(text, out);
}

bool ParseFiniteDouble(const std::string& text, double* out) {
  return ParseWhole(text, out) && std::isfinite(*out);
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  int64_t v = 0;
  if (ParseInt64(it->second, &v)) return v;
  malformed_.insert(name);
  return fallback;
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double v = 0.0;
  if (ParseFiniteDouble(it->second, &v)) return v;
  malformed_.insert(name);
  return fallback;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Flags::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    if (!queried_.count(key)) unused.push_back(key);
  }
  return unused;
}

std::vector<std::string> Flags::MalformedFlags() const {
  std::vector<std::string> bad;
  for (const std::string& key : malformed_) {
    bad.push_back("--" + key + "=" + values_.at(key));
  }
  return bad;
}

size_t ReportMalformedFlags(const Flags& flags) {
  const std::vector<std::string> malformed = flags.MalformedFlags();
  for (const std::string& flag : malformed) {
    std::fprintf(stderr, "malformed number %s\n", flag.c_str());
  }
  return malformed.size();
}

void ApplyThreadsFlag(const Flags& flags) {
  ThreadPool::SetGlobalThreads(static_cast<int>(flags.GetInt("threads", 0)));
}

void ApplySimdFlag(const Flags& flags) {
  const Status s =
      simd::SetActiveIsaFromString(flags.GetString("simd", "auto"));
  PUP_CHECK_MSG(s.ok(), s.message().c_str());
}

}  // namespace pup
