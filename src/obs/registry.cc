#include "obs/registry.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "obs/trace.h"

namespace pup::obs {
namespace {

std::atomic<bool> g_enabled{true};
std::atomic<uint64_t> g_obs_allocs{0};

// Formats a double with fixed precision so exporter output is stable
// across runs and platforms (no locale, no shortest-round-trip noise).
std::string FormatFixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::string(buf);
}

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return std::string(buf);
}

std::string FormatI64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return std::string(buf);
}

// JSON string escaping for metric names (names are ASCII identifiers by
// convention, but the exporter must not emit broken JSON regardless).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

HistogramSnapshot Snapshot(const Histogram& h) {
  HistogramSnapshot s;
  s.count = h.Count();
  s.sum = h.Sum();
  s.p50 = h.Percentile(50.0);
  s.p95 = h.Percentile(95.0);
  s.p99 = h.Percentile(99.0);
  return s;
}

constexpr double kNsPerMs = 1e6;

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t NowNanos() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

uint64_t AllocationCount() {
  return g_obs_allocs.load(std::memory_order_relaxed);
}

namespace internal {
void RecordAlloc() { g_obs_allocs.fetch_add(1, std::memory_order_relaxed); }
}  // namespace internal

double Histogram::Percentile(double p) const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * static_cast<double>(total);
  if (rank < 1.0) rank = 1.0;
  uint64_t cum = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (counts[b] == 0) continue;
    cum += counts[b];
    if (static_cast<double>(cum) + 1e-9 < rank) continue;
    // Bucket b holds samples with bit_width == b: [2^(b-1), 2^b - 1]
    // (bucket 0 is exactly the value 0). Interpolate linearly by the
    // rank's position within the bucket.
    const double lo =
        b == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (b - 1));
    const double hi =
        b == 0 ? 0.0 : static_cast<double>((uint64_t{1} << (b - 1)) * 2 - 1);
    const double before = static_cast<double>(cum - counts[b]);
    const double frac =
        std::clamp((rank - before) / static_cast<double>(counts[b]), 0.0, 1.0);
    // A concurrent Observe may have published its min before its max.
    const double vmin = static_cast<double>(Min());
    const double vmax = std::max(vmin, static_cast<double>(Max()));
    return std::clamp(lo + (hi - lo) * frac, vmin, vmax);
  }
  return 0.0;
}

uint64_t Histogram::Min() const {
  const uint64_t lo = min_.load(std::memory_order_relaxed);
  return lo == UINT64_MAX ? 0 : lo;
}

ScopedTimer::~ScopedTimer() {
  if (timer_ == nullptr) return;
  const uint64_t end_ns = NowNanos();
  const uint64_t dur = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  timer_->Observe(dur);
  if (label_ != nullptr) {
    TraceRecorder* rec = TraceRecorder::Current();
    if (rec != nullptr) rec->Emit(label_, start_ns_, dur);
  }
}

Registry& Registry::Global() {
  static Registry* g = [] {
    internal::RecordAlloc();
    return new Registry();
  }();
  return *g;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    internal::RecordAlloc();
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    internal::RecordAlloc();
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    internal::RecordAlloc();
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetTimer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    internal::RecordAlloc();
    it = timers_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return it->second.get();
}

std::string Registry::ToTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  internal::RecordAlloc();  // Export builds strings; not a hot path.
  std::string out;
  char line[256];
  if (!counters_.empty()) {
    out += "== counters ==\n";
    for (const auto& [name, c] : counters_) {
      std::snprintf(line, sizeof(line), "%-40s %16" PRIu64 "\n", name.c_str(),
                    c->Get());
      out += line;
    }
  }
  if (!gauges_.empty()) {
    out += "== gauges (value / peak) ==\n";
    for (const auto& [name, g] : gauges_) {
      std::snprintf(line, sizeof(line), "%-40s %16" PRId64 " %16" PRId64 "\n",
                    name.c_str(), g->Get(), g->Max());
      out += line;
    }
  }
  if (!timers_.empty()) {
    out += "== timers (ms: total / p50 / p95 / p99, count) ==\n";
    for (const auto& [name, t] : timers_) {
      const HistogramSnapshot s = Snapshot(*t);
      std::snprintf(line, sizeof(line),
                    "%-40s %12.3f %10.3f %10.3f %10.3f %10" PRIu64 "\n",
                    name.c_str(), static_cast<double>(s.sum) / kNsPerMs,
                    s.p50 / kNsPerMs, s.p95 / kNsPerMs, s.p99 / kNsPerMs,
                    s.count);
      out += line;
    }
  }
  if (!histograms_.empty()) {
    out += "== histograms (count / sum / p50 / p95 / p99) ==\n";
    for (const auto& [name, h] : histograms_) {
      const HistogramSnapshot s = Snapshot(*h);
      std::snprintf(line, sizeof(line),
                    "%-40s %10" PRIu64 " %14" PRIu64 " %10.1f %10.1f %10.1f\n",
                    name.c_str(), s.count, s.sum, s.p50, s.p95, s.p99);
      out += line;
    }
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string Registry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  internal::RecordAlloc();  // Export builds strings; not a hot path.
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + FormatU64(c->Get());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"value\":" + FormatI64(g->Get()) +
           ",\"peak\":" + FormatI64(g->Max()) + "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    const HistogramSnapshot s = Snapshot(*h);
    out += "\"" + JsonEscape(name) + "\":{\"count\":" + FormatU64(s.count) +
           ",\"sum\":" + FormatU64(s.sum) +
           ",\"p50\":" + FormatFixed(s.p50, 3) +
           ",\"p95\":" + FormatFixed(s.p95, 3) +
           ",\"p99\":" + FormatFixed(s.p99, 3) + "}";
  }
  out += "},\"timers\":{";
  first = true;
  for (const auto& [name, t] : timers_) {
    if (!first) out += ",";
    first = false;
    const HistogramSnapshot s = Snapshot(*t);
    out += "\"" + JsonEscape(name) + "\":{\"count\":" + FormatU64(s.count) +
           ",\"total_ms\":" +
           FormatFixed(static_cast<double>(s.sum) / kNsPerMs, 6) +
           ",\"p50_ms\":" + FormatFixed(s.p50 / kNsPerMs, 6) +
           ",\"p95_ms\":" + FormatFixed(s.p95 / kNsPerMs, 6) +
           ",\"p99_ms\":" + FormatFixed(s.p99 / kNsPerMs, 6) + "}";
  }
  out += "}}";
  return out;
}

void Registry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, t] : timers_) t->Reset();
}

}  // namespace pup::obs
