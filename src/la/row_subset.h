// A sorted set of distinct row ids of an n-row matrix, with its inverse
// map — the compact ("frontier") layout of the row-restricted kernels.
//
// A compact matrix over a RowSubset holds, at row k, what the full
// n-row matrix holds at row ids()[k]. Training PUP builds one per layer
// and step from the batch's node rows (docs/architecture.md, "Frontier
// propagation"), so Clear/Insert/Seal reuse their buffers: once their
// capacities have seen the largest frontier, rebuilding allocates
// nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "la/csr.h"

namespace pup::la {

class RowSubset {
 public:
  /// Position() of a row that is not a member.
  static constexpr uint32_t kAbsent = UINT32_MAX;

  RowSubset() = default;
  /// An empty subset of an n-row universe.
  explicit RowSubset(size_t n) { Reset(n); }

  /// The subset {0, …, n−1}: compact row k is row k.
  static RowSubset All(size_t n);

  /// Empties the set and sizes the universe to n rows.
  void Reset(size_t n);

  /// Empties the set; O(size()), the universe is kept.
  void Clear();

  /// Adds row `id` (< universe()); duplicates are ignored. Positions are
  /// valid only after Seal().
  void Insert(uint32_t id) {
    PUP_DCHECK(id < pos_.size());
    if (pos_[id] != kAbsent) return;
    pos_[id] = 0;
    // NOLINTNEXTLINE(pup-hot-transitive): capacity retained across Clear(); grows only to a new largest frontier.
    ids_.push_back(id);
  }

  /// Adds every column that rows of `a` in `of` reach (their one-hop
  /// neighborhood). Requires a.cols() == universe().
  void InsertNeighbors(const CsrMatrix& a, const RowSubset& of);

  /// Sorts the members ascending and fills their positions.
  void Seal();

  /// Members, ascending after Seal().
  const std::vector<uint32_t>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }
  size_t universe() const { return pos_.size(); }

  /// Compact row of `id`, or kAbsent for a non-member.
  uint32_t Position(uint32_t id) const { return pos_[id]; }

 private:
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> pos_;  // Size universe(); kAbsent for non-members.
};

}  // namespace pup::la
