// Hot-user result cache for the serving engine.
//
// A 4-way set-associative cache of full-ranking top-K results keyed by
// (user, k, generation). A user lives in set `user % num_sets`; each set
// has its own mutex and evicts its least-recently-used way, ranked by a
// per-set use counter. Concurrent callers touching different sets never
// contend. Built for the zero-alloc steady state: all entries and their
// reply buffers are preallocated at construction, and lookups and
// inserts scan at most four ways without allocating.
//
// Capacity is exact: the `capacity` entries are dealt to
// ceil(capacity / 4) sets as evenly as possible, so with capacity >=
// num_users every set has at least as many ways as users mapping to it
// and nothing is ever evicted. A cache of <= 4 entries is one set, i.e.
// exact LRU.
//
// Consistency contract (docs/serving.md): for a given (user, generation)
// callers must present a consistent exclusion list — it is derived from
// the user's interaction history, which is frozen with the index — so the
// post-exclusion ranking is cacheable by user id alone. Reload bumps the
// generation, and Invalidate drops every entry wholesale.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace pup::serve {

/// Fixed-capacity set-associative map from user id to a served top-K
/// result.
class ResultCache {
 public:
  /// Ways per set.
  static constexpr size_t kWays = 4;

  /// `capacity` entries, each able to hold `max_k` ids/scores, covering
  /// users in [0, num_users).
  ResultCache(size_t capacity, size_t num_users, size_t max_k);

  /// Copies the cached result for (user, k, generation) into the reply
  /// buffers and returns true, or returns false on miss. A hit marks the
  /// entry most recently used in its set.
  bool Lookup(uint32_t user, uint32_t k, uint64_t generation,
              std::vector<uint32_t>* items, std::vector<float>* scores);

  /// Stores a served result, evicting the set's least-recently-used
  /// entry when the set is full. `items`/`scores` must hold at most max_k
  /// elements. An existing entry for the user is overwritten
  /// (k/generation updated).
  void Insert(uint32_t user, uint32_t k, uint64_t generation,
              const std::vector<uint32_t>& items,
              const std::vector<float>& scores);

  /// Drops every entry (index reload). O(capacity); not a hot-path op.
  void Invalidate();

  size_t capacity() const { return entries_.size(); }
  /// Live entries (for tests; takes every set's lock).
  size_t size();

 private:
  struct Entry {
    uint32_t user = 0;
    uint32_t k = 0;
    uint64_t generation = 0;
    uint64_t last_use = 0;  ///< The set's use counter at the last touch.
    bool valid = false;
    std::vector<uint32_t> items;
    std::vector<float> scores;
  };

  // Own cache line per set, so neighbouring sets' locks do not share one.
  struct alignas(64) Set {
    std::mutex mu;
    uint64_t clock = 0;  ///< Use counter; guarded by mu.
    size_t first = 0;    ///< Index of the set's first way in entries_.
    size_t ways = 0;
  };

  // The set `user` maps to.
  Set& SetOf(uint32_t user) { return sets_[user % sets_.size()]; }

  size_t num_users_;
  /// Set s owns entries_[first, first + ways), guarded by its mu.
  std::vector<Entry> entries_;
  std::vector<Set> sets_;
};

}  // namespace pup::serve
