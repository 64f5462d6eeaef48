// Counts every heap allocation a thread makes through the global
// operator new, so a test can assert that a loop allocates nothing at all
// — not only Matrix buffers and obs registrations, but vector growth,
// std::function state, shared-state blocks, anything.
//
// This header DEFINES the replaceable global allocation functions: include
// it from exactly one translation unit per test binary.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace pup::testing {

inline thread_local uint64_t tls_heap_allocations = 0;

/// Heap allocations made so far by the calling thread.
inline uint64_t ThreadHeapAllocations() { return tls_heap_allocations; }

inline void* CountedAlloc(std::size_t size, std::size_t align) {
  ++tls_heap_allocations;
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace pup::testing

void* operator new(std::size_t size) {
  return pup::testing::CountedAlloc(size, 0);
}
void* operator new[](std::size_t size) {
  return pup::testing::CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return pup::testing::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return pup::testing::CountedAlloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms are replaced too: a sanitizer runtime supplies its
// own, which would pair its allocator with the std::free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return pup::testing::CountedAlloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return pup::testing::CountedAlloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
