// Per-step memory reuse for the define-by-run tape.
//
// The BPR trainer rebuilds an identically shaped graph every minibatch, so
// the tape's memory demand is periodic. Two recyclers exploit that:
//
//  * TapeArena — bump-allocates Node objects out of fixed blocks and hands
//    them to ops through the shared_ptr aliasing constructor (no per-node
//    control block). Reset() between steps rewinds the bump index without
//    freeing, so step k+1 reuses step k's nodes in creation order; since
//    the tape has the same shape each step, every node sees the same
//    value/grad shapes it had before and its buffers (capacity-retaining
//    ResizeNoZero) are reused with zero allocations.
//
//  * WorkspaceCache — a capacity-keyed pool of la::Matrix scratch buffers
//    for backward-pass intermediates (e.g. MatMul's two Gemm outputs).
//    Acquire pops a pooled buffer of the same column count that can hold
//    the request (hit) or allocates (miss); Release returns it. Frontier
//    tensors change row count every step (docs/architecture.md), so a
//    buffer serves any request up to its capacity: once the pool has seen
//    the largest frontier, every request hits.
//
// Activation is scoped: ops consult TapeArena::Current() (a thread-local
// set by TapeArena::Scope) and fall back to heap nodes / local scratch
// when no arena is active, keeping the public Tensor API and all ad-hoc
// graph construction (tests, inference) source-compatible.
//
// Trim() at epoch boundaries releases pooled workspace buffers so an idle
// model does not pin peak scratch memory. See docs/architecture.md
// "Memory model".
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autograd/tensor.h"

namespace pup::ag {

/// Capacity-keyed pool of scratch matrices for backward intermediates.
class WorkspaceCache {
 public:
  /// Returns a rows x cols matrix. A hit reuses the smallest pooled
  /// buffer of `cols` columns whose capacity holds rows x cols, with no
  /// allocation. A miss grows the largest pooled buffer of `cols` columns,
  /// or makes a fresh zeroed one when there is none, so undersized
  /// buffers do not pile up. Contents are unspecified; callers overwrite.
  la::Matrix Acquire(size_t rows, size_t cols);

  /// Returns a buffer to the pool (empty matrices are dropped).
  void Release(la::Matrix m);

  /// Frees every pooled buffer; keeps the counters.
  void Trim();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t pooled() const;

 private:
  // Pooled buffers by column count.
  std::unordered_map<size_t, std::vector<la::Matrix>> pool_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Bump allocator of tape nodes, reset (not freed) between steps.
class TapeArena {
 public:
  struct Stats {
    /// Nodes handed out from fresh (never-used) slots.
    uint64_t nodes_created = 0;
    /// Nodes handed out from recycled slots.
    uint64_t nodes_reused = 0;
    /// Reset() calls (== completed steps).
    uint64_t resets = 0;
    /// Nodes the last completed step used.
    size_t last_tape_nodes = 0;
  };

  TapeArena() = default;
  /// Clears parent edges of all used slots: parents are aliased Tensors
  /// into the arena's own blocks, so without this the blocks would keep
  /// themselves alive through the cycle.
  ~TapeArena();
  TapeArena(const TapeArena&) = delete;
  TapeArena& operator=(const TapeArena&) = delete;

  /// Hands out the next node. Recycled slots are ResetForReuse()d; their
  /// matrix/index buffers keep capacity. The returned Tensor aliases the
  /// slot's block, so no control block is allocated.
  Tensor NewNode();

  /// Rewinds the bump index; the next step reuses the same slots in the
  /// same order. Callers must drop all Tensors into this arena first.
  void Reset();

  /// Epoch-boundary trim: releases pooled workspace buffers. Node blocks
  /// are kept — the next epoch's tape has the same shape.
  void Trim();

  /// Nodes handed out since the last Reset().
  size_t nodes_in_use() const { return next_; }

  WorkspaceCache& workspace() { return workspace_; }
  const Stats& stats() const { return stats_; }

  /// Thread-local active arena, set by Scope; null when none.
  static TapeArena* Current();

  /// RAII activation: ops created inside the scope draw from `arena`.
  class Scope {
   public:
    explicit Scope(TapeArena* arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TapeArena* previous_;
  };

 private:
  static constexpr size_t kBlockSize = 64;
  using Block = std::array<Node, kBlockSize>;

  std::vector<std::shared_ptr<Block>> blocks_;
  size_t next_ = 0;        // Bump index into blocks_.
  size_t high_water_ = 0;  // Slots ever handed out; below it = recycled.
  Stats stats_;
  WorkspaceCache workspace_;
};

}  // namespace pup::ag
