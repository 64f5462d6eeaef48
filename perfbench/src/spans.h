// In-memory span recorder for the traced run.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it, and the request it belongs to (spans of one request share
// the id). Each thread records into its own preallocated SpanBuffer, so
// recording takes no lock and never allocates; a full buffer drops the
// span and counts it. SpanLog::WriteJsonl writes every buffer out once,
// when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = nullptr;  ///< Static string: "<layer>.<call>".
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span.
  uint64_t request = 0;  ///< 0 when the span belongs to no request.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanBuffer {
 public:
  SpanBuffer(uint32_t thread, size_t capacity);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Records a finished span; returns its id, or 0 when the buffer is
  /// full and the span was dropped.
  uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                  uint64_t start_ns, uint64_t end_ns);

  /// Reserves an id for a span whose children are recorded before it
  /// ends; pass it to RecordWithId when the span closes.
  uint64_t NextId() { return (static_cast<uint64_t>(thread_) << 40) | ++seq_; }
  void RecordWithId(uint64_t id, const char* name, uint64_t parent,
                    uint64_t request, uint64_t start_ns, uint64_t end_ns);

  uint32_t thread() const { return thread_; }
  size_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  uint64_t seq_ = 0;
  size_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Owns the per-thread buffers of one run.
class SpanLog {
 public:
  /// Returns a buffer with room for `capacity` spans, owned by the log.
  /// Thread-safe; the pointer stays valid for the log's lifetime.
  SpanBuffer* NewBuffer(size_t capacity);

  size_t recorded() const;
  size_t dropped() const;

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Records a span from construction to destruction into `buf`; does
/// nothing when `buf` is null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : buf_(buf),
        name_(name),
        parent_(parent),
        request_(request),
        id_(buf != nullptr ? buf->NextId() : 0),
        start_ns_(buf != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) {
      buf_->RecordWithId(id_, name_, parent_, request_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buf_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_;
  uint64_t start_ns_;
};

}  // namespace perfbench
