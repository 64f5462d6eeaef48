#include "autograd/arena.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pup::ag {
namespace {

thread_local TapeArena* g_current_arena = nullptr;

}  // namespace

la::Matrix WorkspaceCache::Acquire(size_t rows, size_t cols) {
  auto it = pool_.find(cols);
  if (it == pool_.end() || it->second.empty()) {
    ++misses_;
    return la::Matrix(rows, cols);
  }
  std::vector<la::Matrix>& bucket = it->second;
  const size_t need = la::Matrix::ExtentFor(rows, cols);
  size_t best = bucket.size();
  size_t largest = 0;
  for (size_t i = 0; i < bucket.size(); ++i) {
    const size_t cap = bucket[i].capacity();
    if (cap >= need &&
        (best == bucket.size() || cap < bucket[best].capacity())) {
      best = i;
    }
    if (cap > bucket[largest].capacity()) largest = i;
  }
  const bool hit = best < bucket.size();
  const size_t take = hit ? best : largest;
  if (take + 1 != bucket.size()) std::swap(bucket[take], bucket.back());
  la::Matrix m = std::move(bucket.back());
  bucket.pop_back();
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
  }
  m.ResizeNoZero(rows, cols);
  return m;
}

void WorkspaceCache::Release(la::Matrix m) {
  if (m.empty()) return;
  pool_[m.cols()].push_back(std::move(m));
}

void WorkspaceCache::Trim() { pool_.clear(); }

size_t WorkspaceCache::pooled() const {
  size_t n = 0;
  // NOLINTNEXTLINE(pup-unordered-iter) — pure count, order-insensitive.
  for (const auto& [key, buffers] : pool_) n += buffers.size();
  return n;
}

TapeArena::~TapeArena() {
  // Nodes hold aliased Tensors to their parents, which live in the same
  // blocks — a reference cycle through the block control blocks. Drop the
  // parent edges so the blocks can actually free.
  const size_t used = std::max(high_water_, next_);
  for (size_t i = 0; i < used; ++i) {
    (*blocks_[i / kBlockSize])[i % kBlockSize].ResetForReuse();
  }
}

Tensor TapeArena::NewNode() {
  const size_t block = next_ / kBlockSize;
  const size_t slot = next_ % kBlockSize;
  // NOLINTNEXTLINE(pup-hot-transitive): amortized block growth; blocks are recycled across steps by Reset().
  if (block == blocks_.size()) blocks_.push_back(std::make_shared<Block>());
  Node* node = &(*blocks_[block])[slot];
  if (next_ < high_water_) {
    node->ResetForReuse();
    ++stats_.nodes_reused;
  } else {
    ++stats_.nodes_created;
  }
  ++next_;
  // Aliasing constructor: the handle shares the block's control block and
  // points at the slot — per-node allocation count stays zero.
  return Tensor(blocks_[block], node);
}

void TapeArena::Reset() {
  stats_.last_tape_nodes = next_;
  high_water_ = std::max(high_water_, next_);
  next_ = 0;
  ++stats_.resets;
}

void TapeArena::Trim() { workspace_.Trim(); }

TapeArena* TapeArena::Current() { return g_current_arena; }

TapeArena::Scope::Scope(TapeArena* arena) : previous_(g_current_arena) {
  PUP_CHECK(arena != nullptr);
  g_current_arena = arena;
}

TapeArena::Scope::~Scope() { g_current_arena = previous_; }

}  // namespace pup::ag
