// Shared inference-time scoring helper.
//
// Most models in this library reduce, after training, to
//   score(u, i) = ⟨user_vec[u], item_vec[i]⟩ + item_bias[i]
// for suitable precomputed vectors (e.g. PUP folds the price and category
// inner products of eq. 3 into item_vec and item_bias). This helper stores
// the user vectors and the item table packed into 16-item panels
// (la/item_panels.h), and scores blocks of users against every item with
// one pass over those panels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "la/item_panels.h"
#include "la/matrix.h"

namespace pup::models {

/// Precomputed dot-product scorer: score(u,·) = item_vecs · user_vec(u)
/// + item_bias.
class DotScorer {
 public:
  DotScorer() = default;

  /// `user_vecs` is (num_users, d), `item_vecs` is (num_items, d);
  /// `item_bias` may be empty (treated as zero).
  DotScorer(la::Matrix user_vecs, la::Matrix item_vecs,
            std::vector<float> item_bias = {});

  /// Writes score(u, i) for every item into `out` (ScoreUsers, n = 1).
  void ScoreItems(uint32_t user, std::vector<float>* out) const;

  /// Scores users[0..n): row r of `out`, at out + r * num_items(), holds
  /// score(users[r], ·). Each score is item_bias[i] followed by the
  /// products added in ascending dimension order, bitwise equal on
  /// every SIMD backend. Never allocates.
  void ScoreUsers(const uint32_t* users, size_t n, float* out) const;

  bool initialized() const { return user_vecs_.rows() > 0; }
  size_t num_items() const { return panels_.num_items(); }
  const la::Matrix& user_vecs() const { return user_vecs_; }
  /// The item vectors as a (num_items, d) Matrix, unpacked from the
  /// panels on each call (the scorer keeps one copy of the table).
  la::Matrix item_vecs() const { return panels_.Unpack(); }
  /// Empty when the model has no additive item term.
  const std::vector<float>& item_bias() const { return item_bias_; }

  /// Persists the scorer as three matrix files under `prefix`
  /// (prefix.users / prefix.items / prefix.bias) — a framework-free
  /// deployment snapshot of any trained model's folded inference state.
  Status Save(const std::string& prefix) const;

  /// Loads a scorer previously written by Save.
  static Result<DotScorer> Load(const std::string& prefix);

 private:
  la::Matrix user_vecs_;
  std::vector<float> item_bias_;
  la::ItemPanels panels_;  ///< The item vectors and item_bias_.
};

}  // namespace pup::models
