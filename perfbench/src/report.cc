#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& what, uint64_t n) {
  failed_ += n;
  std::fprintf(stderr, "perfbench: check failed (%llu): %s\n",
               static_cast<unsigned long long>(n), what.c_str());
}

void Report::Info(const std::string& key, const std::string& value) const {
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
}

std::string Report::ResultLine(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  };
  for (const std::string& n : names) {
    for (const Metric& m : metrics_) {
      if (m.name == n) emit(m);
    }
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
