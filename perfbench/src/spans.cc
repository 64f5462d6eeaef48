#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanBuffer::SpanBuffer(uint32_t thread, size_t capacity) : thread_(thread) {
  spans_.reserve(capacity);
}

uint64_t SpanBuffer::Record(const char* name, uint64_t parent,
                            uint64_t request, uint64_t start_ns,
                            uint64_t end_ns) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return 0;
  }
  const uint64_t id = NextId();
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  return id;
}

void SpanBuffer::RecordWithId(uint64_t id, const char* name, uint64_t parent,
                              uint64_t request, uint64_t start_ns,
                              uint64_t end_ns) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
}

SpanBuffer* SpanLog::NewBuffer(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(
      static_cast<uint32_t>(buffers_.size() + 1), capacity));
  return buffers_.back().get();
}

size_t SpanLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

size_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->dropped();
  return n;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"thread\":%u,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), b->thread(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
