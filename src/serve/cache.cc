#include "serve/cache.h"

#include "common/check.h"

namespace pup::serve {

ResultCache::ResultCache(size_t capacity, size_t num_users, size_t max_k)
    : num_users_(num_users),
      entries_(capacity),
      sets_(capacity == 0 ? 0 : (capacity + kWays - 1) / kWays) {
  for (Entry& e : entries_) {
    e.items.reserve(max_k);
    e.scores.reserve(max_k);
  }
  // Deal the entries out evenly: the first capacity % num_sets sets get
  // one extra way.
  size_t first = 0;
  for (size_t s = 0; s < sets_.size(); ++s) {
    sets_[s].first = first;
    sets_[s].ways =
        capacity / sets_.size() + (s < capacity % sets_.size() ? 1 : 0);
    first += sets_[s].ways;
  }
}

// PUP_HOT: one lookup per cacheable request; scans <= kWays entries,
// copies bounded by the Reserve'd max_k.
bool ResultCache::Lookup(uint32_t user, uint32_t k, uint64_t generation,
                         std::vector<uint32_t>* items,
                         std::vector<float>* scores) {
  if (entries_.empty() || user >= num_users_) return false;
  Set& set = SetOf(user);
  std::lock_guard<std::mutex> lock(set.mu);  // NOLINT(pup-hot-transitive): sub-us slot-table critical section — the cache contract.
  for (size_t w = set.first; w < set.first + set.ways; ++w) {
    Entry& e = entries_[w];
    if (!e.valid || e.user != user) continue;
    if (e.k != k || e.generation != generation) return false;
    // NOLINTNEXTLINE(pup-hot-alloc): <= max_k elements into reserved buffers.
    items->assign(e.items.begin(), e.items.end());
    // NOLINTNEXTLINE(pup-hot-alloc): <= max_k elements into reserved buffers.
    scores->assign(e.scores.begin(), e.scores.end());
    e.last_use = ++set.clock;
    return true;
  }
  return false;
}

// PUP_HOT: one insert per cacheable miss; picks the user's own way, else
// a free way, else the set's least-recently-used one.
void ResultCache::Insert(uint32_t user, uint32_t k, uint64_t generation,
                         const std::vector<uint32_t>& items,
                         const std::vector<float>& scores) {
  if (entries_.empty() || user >= num_users_) return;
  PUP_DCHECK(items.size() <= entries_[0].items.capacity());
  Set& set = SetOf(user);
  std::lock_guard<std::mutex> lock(set.mu);  // NOLINT(pup-hot-transitive): sub-us slot-table critical section — the cache contract.
  Entry* slot = nullptr;
  for (size_t w = set.first; w < set.first + set.ways; ++w) {
    Entry& e = entries_[w];
    if (e.valid && e.user == user) {
      slot = &e;
      break;
    }
    if (slot == nullptr || (slot->valid && (!e.valid ||
                                            e.last_use < slot->last_use))) {
      slot = &e;
    }
  }
  slot->user = user;
  slot->k = k;
  slot->generation = generation;
  slot->valid = true;
  slot->last_use = ++set.clock;
  // NOLINTNEXTLINE(pup-hot-alloc): <= max_k elements into reserved buffers.
  slot->items.assign(items.begin(), items.end());
  // NOLINTNEXTLINE(pup-hot-alloc): <= max_k elements into reserved buffers.
  slot->scores.assign(scores.begin(), scores.end());
}

void ResultCache::Invalidate() {
  for (Set& set : sets_) {
    std::lock_guard<std::mutex> lock(set.mu);
    for (size_t w = set.first; w < set.first + set.ways; ++w) {
      entries_[w].valid = false;
    }
  }
}

size_t ResultCache::size() {
  size_t live = 0;
  for (Set& set : sets_) {
    std::lock_guard<std::mutex> lock(set.mu);  // NOLINT(pup-hot-transitive): counter read.
    for (size_t w = set.first; w < set.first + set.ways; ++w) {
      live += entries_[w].valid ? 1 : 0;
    }
  }
  return live;
}

}  // namespace pup::serve
