// pup::obs — the observability layer: a thread-safe metrics registry
// (monotonic counters, gauges, fixed-bucket histograms with percentile
// estimation) and RAII scoped timers that aggregate per-label wall time.
//
// Design contract (see docs/observability.md):
//  * Registration allocates; recording does not. Instrumentation sites
//    resolve their handle once (function-local static) and the hot-path
//    operations — Counter::Add, Gauge::Set, Histogram::Observe, a
//    ScopedTimer start/stop — are a handful of relaxed atomics, so
//    `// PUP_HOT` functions may carry them without breaking the
//    zero-allocation training step (pup_lint knows the idiom).
//  * Everything is deterministic to export: metric maps are ordered,
//    exporters format with fixed precision, and histogram percentiles
//    interpolate within power-of-two buckets.
//  * The library is std-only (no pup_common dependency), so every layer
//    down to common/thread_pool can link it without a cycle.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace pup::obs {

/// Global metrics switch. When off, recording operations return after one
/// relaxed load — the "metrics-off" baseline of the overhead benchmark
/// (`metrics_overhead` in bench_micro_kernels, acceptance bar < 3%).
bool Enabled();
void SetEnabled(bool enabled);

/// Monotonic nanoseconds since the first call in this process (a steady,
/// suspend-free clock base shared by timers and the trace recorder).
uint64_t NowNanos();

/// Number of heap allocations the obs layer has performed (metric
/// registrations, export buffers). The steady-state contract — recording
/// through cached handles never allocates — is tested as a zero delta of
/// this counter across a hot loop (mirroring la::MatrixAllocStats).
uint64_t AllocationCount();

namespace internal {
/// Records one deliberate obs-layer allocation (registry inserts, trace
/// buffer creation). Every allocating site in the library calls this.
void RecordAlloc();
}  // namespace internal

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value plus a high-water mark (e.g. thread-pool queue
/// depth and its peak).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket histogram over non-negative integer samples. Bucket b
/// holds samples whose bit width is b (power-of-two bounds), so Observe
/// is one bit scan plus three relaxed atomic adds — no allocation, no
/// lock. Percentiles interpolate linearly inside the selected bucket.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Observe(uint64_t value) {
    if (!Enabled()) return;
    const size_t b =
        std::min<size_t>(std::bit_width(value), kNumBuckets - 1);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    uint64_t lo = min_.load(std::memory_order_relaxed);
    while (value < lo &&
           !min_.compare_exchange_weak(lo, value, std::memory_order_relaxed)) {
    }
    uint64_t hi = max_.load(std::memory_order_relaxed);
    while (value > hi &&
           !max_.compare_exchange_weak(hi, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest observed value; 0 when empty.
  uint64_t Min() const;
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// Estimated value at percentile `p` in [0, 100]; 0 when empty. Bucket
  /// resolution is a factor of two, linearly interpolated within the
  /// bucket and clamped to [Min(), Max()], so no percentile reads outside
  /// the observed range (one sample is its own p50 and p99).
  double Percentile(double p) const;

  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// RAII span: measures wall time from construction to destruction,
/// records it (nanoseconds) into `timer`, and — when a TraceRecorder is
/// installed (trace.h) — emits one chrome://tracing complete event named
/// `label`. `label` must be a string literal (stored by pointer).
/// Both endpoints are allocation-free; with metrics disabled the clock is
/// never read.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* timer, const char* label = nullptr)
      : timer_(Enabled() ? timer : nullptr),
        label_(label),
        start_ns_(timer_ != nullptr ? NowNanos() : 0) {}
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* timer_;
  const char* label_;
  uint64_t start_ns_;
};

/// Exported view of one histogram/timer (used by both exporters).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Named metrics, registered on first use. `Global()` is the process-wide
/// instance every instrumentation site targets; tests construct private
/// registries for isolation. Handles returned by the getters stay valid
/// for the registry's lifetime, so call sites cache them in function-local
/// statics and pay the mutex only once.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& Global();

  /// Find-or-create. Names follow the "<layer>/<what>" convention
  /// (docs/observability.md); timers hold nanoseconds and are exported in
  /// milliseconds, plain histograms are unit-free.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  Histogram* GetTimer(const std::string& name);

  /// Human-readable table of every metric (deterministic order).
  std::string ToTable() const;

  /// One JSON object: {"counters":{…},"gauges":{…},"histograms":{…},
  /// "timers":{…}}. Keys sorted, numbers fixed-precision — stable enough
  /// to diff between runs; embedded verbatim in bench JSON summaries.
  std::string ToJson() const;

  /// Zeroes every registered value, keeping registrations (and therefore
  /// cached handles) intact. For tests and A/B benchmark phases.
  void ResetValues();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Histogram>> timers_;
};

// Instrumentation macros: resolve the handle once per site, then record
// through it. Usable inside `// PUP_HOT` regions — see the header comment
// and pup_lint's pup-hot-alloc allowlist.
#define PUP_OBS_CONCAT_INNER(a, b) a##b
#define PUP_OBS_CONCAT(a, b) PUP_OBS_CONCAT_INNER(a, b)

/// Adds `delta` to the counter named `label` (a string literal).
#define PUP_OBS_COUNT(label, delta)                                      \
  do {                                                                   \
    static ::pup::obs::Counter& PUP_OBS_CONCAT(pup_obs_counter_,         \
                                               __LINE__) =               \
        *::pup::obs::Registry::Global().GetCounter(label);               \
    PUP_OBS_CONCAT(pup_obs_counter_, __LINE__).Add(delta);               \
  } while (0)

/// Times the rest of the enclosing scope under the timer named `label`
/// (a string literal), emitting a trace event when tracing is on.
#define PUP_OBS_SCOPED_TIMER(label)                                      \
  static ::pup::obs::Histogram& PUP_OBS_CONCAT(pup_obs_timer_,           \
                                               __LINE__) =               \
      *::pup::obs::Registry::Global().GetTimer(label);                   \
  ::pup::obs::ScopedTimer PUP_OBS_CONCAT(pup_obs_span_, __LINE__)(       \
      &PUP_OBS_CONCAT(pup_obs_timer_, __LINE__), label)

}  // namespace pup::obs
