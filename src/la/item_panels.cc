#include "la/item_panels.h"

#include "common/check.h"
#include "la/simd/backend.h"
#include "obs/registry.h"

namespace pup::la {

ItemPanels::ItemPanels(const Matrix& items, const float* bias)
    : num_items_(items.rows()), dim_(items.cols()) {
  const size_t np = num_panels();
  panels_.assign(np * dim_ * kPanelItems, 0.0f);
  bias_.assign(np * kPanelItems, 0.0f);
  for (size_t i = 0; i < num_items_; ++i) {
    float* lane = panels_.data() + (i / kPanelItems) * dim_ * kPanelItems +
                  i % kPanelItems;
    const float* v = items.Row(i);
    for (size_t p = 0; p < dim_; ++p) lane[p * kPanelItems] = v[p];
    if (bias != nullptr) bias_[i] = bias[i];
  }
}

Matrix ItemPanels::Unpack() const {
  Matrix items(num_items_, dim_);
  for (size_t i = 0; i < num_items_; ++i) {
    const float* lane = panels_.data() +
                        (i / kPanelItems) * dim_ * kPanelItems +
                        i % kPanelItems;
    float* v = items.Row(i);
    for (size_t p = 0; p < dim_; ++p) v[p] = lane[p * kPanelItems];
  }
  return items;
}

// PUP_HOT: full-ranking eval scores every 16-user block through here;
// writes into caller-owned rows and must not allocate.
void ScoreUsers(const ItemPanels& panels, const float* const* users, size_t n,
                float* out, size_t out_stride) {
  PUP_OBS_COUNT("la/score_users", n);
  if (n == 0 || panels.num_items() == 0) return;
  PUP_DCHECK(out_stride >= panels.num_items());
  simd::Active().panel_score(panels.panels(), panels.bias(),
                             panels.num_panels(), panels.dim(),
                             panels.num_items(), users, n, out, out_stride);
}

}  // namespace pup::la
