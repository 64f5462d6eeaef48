#include "models/scoring.h"

#include <algorithm>

#include "common/check.h"
#include "la/io.h"

namespace pup::models {

DotScorer::DotScorer(la::Matrix user_vecs, la::Matrix item_vecs,
                     std::vector<float> item_bias)
    : user_vecs_(std::move(user_vecs)), item_bias_(std::move(item_bias)) {
  PUP_CHECK_EQ(user_vecs_.cols(), item_vecs.cols());
  if (!item_bias_.empty()) {
    PUP_CHECK_EQ(item_bias_.size(), item_vecs.rows());
  }
  panels_ = la::ItemPanels(
      item_vecs, item_bias_.empty() ? nullptr : item_bias_.data());
}

void DotScorer::ScoreItems(uint32_t user, std::vector<float>* out) const {
  out->resize(num_items());
  ScoreUsers(&user, 1, out->data());
}

// Keeps the historical bias-seeded accumulation order (bias, then
// u[p] * v[p] added for ascending p): the serial regression goldens pin
// this exact float sequence, and the panel kernel reproduces it on every
// backend. The serving layer freezes these tables and scores them
// through la::ScoreItemsForUser (dot first, bias after); its parity
// contract is defined against IndexScorer, which uses that same kernel —
// see docs/serving.md.
void DotScorer::ScoreUsers(const uint32_t* users, size_t n, float* out) const {
  PUP_CHECK_MSG(initialized(), "DotScorer used before Fit");
  // The kernel takes row pointers; pass them a stack block at a time.
  constexpr size_t kBlock = 16;
  const float* rows[kBlock];
  for (size_t lo = 0; lo < n; lo += kBlock) {
    const size_t m = std::min(kBlock, n - lo);
    for (size_t r = 0; r < m; ++r) {
      PUP_CHECK(users[lo + r] < user_vecs_.rows());
      rows[r] = user_vecs_.Row(users[lo + r]);
    }
    la::ScoreUsers(panels_, rows, m, out + lo * num_items(), num_items());
  }
}

Status DotScorer::Save(const std::string& prefix) const {
  if (!initialized()) {
    return Status::FailedPrecondition("cannot save an empty DotScorer");
  }
  PUP_RETURN_NOT_OK(la::WriteMatrix(user_vecs_, prefix + ".users"));
  PUP_RETURN_NOT_OK(la::WriteMatrix(item_vecs(), prefix + ".items"));
  la::Matrix bias(item_bias_.empty() ? 0 : item_bias_.size(), 1);
  for (size_t i = 0; i < item_bias_.size(); ++i) bias(i, 0) = item_bias_[i];
  return la::WriteMatrix(bias, prefix + ".bias");
}

Result<DotScorer> DotScorer::Load(const std::string& prefix) {
  PUP_ASSIGN_OR_RETURN(la::Matrix users, la::ReadMatrix(prefix + ".users"));
  PUP_ASSIGN_OR_RETURN(la::Matrix items, la::ReadMatrix(prefix + ".items"));
  PUP_ASSIGN_OR_RETURN(la::Matrix bias, la::ReadMatrix(prefix + ".bias"));
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item dimension mismatch");
  }
  std::vector<float> item_bias;
  if (bias.rows() > 0) {
    if (bias.rows() != items.rows() || bias.cols() != 1) {
      return Status::InvalidArgument("bias shape mismatch");
    }
    item_bias.assign(bias.data(), bias.data() + bias.rows());
  }
  return DotScorer(std::move(users), std::move(items), std::move(item_bias));
}

}  // namespace pup::models
