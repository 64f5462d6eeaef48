// Item-panel layout and the block scoring kernel behind full-ranking
// eval (docs/simd.md, "order-preserving" class).
//
// A dot-product scorer ranks every item for a user as
//   score(u, i) = bias[i] + u[0]*v_i[0] + u[1]*v_i[1] + ... + u[d-1]*v_i[d-1]
// ItemPanels stores the item table in groups of 16 items ("panels"),
// each dimension-major — [panel][dim][16] — so one 16-float vector holds
// dimension p of 16 items. The kernel then keeps one accumulator lane
// per item and adds the terms in ascending p, exactly the float sequence
// of the plain scalar loop: the scores are bitwise equal on every SIMD
// backend, while one 4 KiB panel (d = 64) is reused from L1 across a
// whole block of users.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace pup::la {

/// Immutable panel-major copy of an item table and its additive bias.
/// 64-byte aligned; lanes past the last item are zero in both the
/// vectors and the bias.
class ItemPanels {
 public:
  /// Items per panel: one AVX-512 vector, two AVX2 vectors.
  static constexpr size_t kPanelItems = 16;

  ItemPanels() = default;

  /// Packs `items` (num_items x dim) and `bias` (num_items floats, or
  /// nullptr for none — scored as a bias of +0.0f, which adds nothing).
  ItemPanels(const Matrix& items, const float* bias);

  size_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }
  size_t num_panels() const {
    return (num_items_ + kPanelItems - 1) / kPanelItems;
  }
  /// num_panels() consecutive panels of dim() x kPanelItems floats.
  const float* panels() const { return panels_.data(); }
  /// num_panels() * kPanelItems floats.
  const float* bias() const { return bias_.data(); }

  /// The packed item table, unpacked back into a num_items x dim Matrix
  /// (a copy, bitwise equal to the table it was built from).
  Matrix Unpack() const;

 private:
  using AlignedVector = std::vector<float, internal::AlignedAllocator<float>>;

  size_t num_items_ = 0;
  size_t dim_ = 0;
  AlignedVector panels_;
  AlignedVector bias_;
};

/// Scores a block of users against every item:
///   out[r * out_stride + i] = bias[i] + Σ_p users[r][p] * items(i, p)
/// for r in [0, n) and i in [0, num_items), each term one rounded
/// multiply then one rounded add, in ascending p (never FMA) — bitwise
/// equal on every backend to the scalar loop that starts at bias[i].
/// `users[r]` points at panels.dim() floats (any alignment). Runs on the
/// calling thread and never allocates.
void ScoreUsers(const ItemPanels& panels, const float* const* users, size_t n,
                float* out, size_t out_stride);

}  // namespace pup::la
