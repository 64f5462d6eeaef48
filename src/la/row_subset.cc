#include "la/row_subset.h"

#include <algorithm>
#include <numeric>

namespace pup::la {

RowSubset RowSubset::All(size_t n) {
  RowSubset s;
  s.ids_.resize(n);
  std::iota(s.ids_.begin(), s.ids_.end(), 0u);
  s.pos_ = s.ids_;
  return s;
}

void RowSubset::Reset(size_t n) {
  ids_.clear();
  pos_.assign(n, kAbsent);
}

void RowSubset::Clear() {
  for (uint32_t id : ids_) pos_[id] = kAbsent;
  ids_.clear();
}

void RowSubset::InsertNeighbors(const CsrMatrix& a, const RowSubset& of) {
  PUP_CHECK_EQ(a.cols(), universe());
  PUP_CHECK_EQ(a.rows(), of.universe());
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  for (uint32_t r : of.ids()) {
    for (uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) Insert(col_idx[k]);
  }
}

void RowSubset::Seal() {
  std::sort(ids_.begin(), ids_.end());
  for (size_t k = 0; k < ids_.size(); ++k) {
    pos_[ids_[k]] = static_cast<uint32_t>(k);
  }
}

}  // namespace pup::la
