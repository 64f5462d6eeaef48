// The run's outcome: named metrics with units, operations attempted, and
// correctness failures. ResultLine() is the one JSON object the run
// prints last on stdout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// Sets (or overwrites) a metric. A non-finite value is a failure.
  void Set(const std::string& name, double value, const std::string& unit);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations and logs `what` to stderr.
  void Fail(const std::string& what, uint64_t n = 1);

  /// Emits a "# key: value" context line (thread counts, sizes, ...).
  void Info(const std::string& key, const std::string& value) const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  /// restricted to `names`, in that order.
  std::string ResultLine(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench
