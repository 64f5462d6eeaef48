#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autograd/arena.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "la/kernels.h"

namespace pup::ag {
namespace {

// Rows per ParallelFor chunk for a row loop of `row_cost` scalar ops:
// about 2^14 operations a chunk, the la kernels' grain.
size_t RowGrain(size_t row_cost) {
  return std::max<size_t>(1, (size_t{1} << 14) / std::max<size_t>(1, row_cost));
}

// Scalar operations one keyed-hash dropout draw costs, roughly.
constexpr size_t kDropoutDrawCost = 8;

// Node factory: draws from the active TapeArena when a step scope is open
// (recycled slot, zero allocations in steady state), else heap-allocates
// exactly as the historical tape did. Parents are appended into the
// node's recycled vector — no temporary initializer-list vector. `name`
// must be a string literal; it is the provenance NumericGuard reports.
// PUP_HOT
template <typename... Parents>
Tensor NewOpNode(const char* name, Node::BackwardFn fn,
                 const Parents&... parents) {
  Tensor node;
  if (TapeArena* arena = TapeArena::Current()) {
    node = arena->NewNode();
  } else {
    node = internal::NewHeapNode();
  }
  node->op_name = name;
  // NOLINTNEXTLINE(pup-hot-alloc) — recycled nodes keep parent capacity.
  (node->parents.push_back(parents), ...);
  for (const Tensor& p : node->parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  if (node->requires_grad) node->backward_fn = fn;
  return node;
}

// PUP_HOT
Tensor NewOpNode(const char* name, Node::BackwardFn fn,
                 const std::vector<Tensor>& parents) {
  Tensor node;
  if (TapeArena* arena = TapeArena::Current()) {
    node = arena->NewNode();
  } else {
    node = internal::NewHeapNode();
  }
  node->op_name = name;
  // NOLINTNEXTLINE(pup-hot-alloc) — recycled nodes keep parent capacity.
  for (const Tensor& p : parents) node->parents.push_back(p);
  for (const Tensor& p : node->parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  if (node->requires_grad) node->backward_fn = fn;
  return node;
}

// Backward scratch buffer. Under an arena it is drawn from (and returned
// to) the shape-keyed WorkspaceCache; otherwise it starts empty and the
// kernel writing into it resizes it, matching the historical per-call
// local. Contents on acquisition are unspecified — every use overwrites.
class Scratch {
 public:
  Scratch(size_t rows, size_t cols) {
    if (TapeArena* arena = TapeArena::Current()) {
      pooled_ = true;
      m_ = arena->workspace().Acquire(rows, cols);
    }
  }
  ~Scratch() {
    if (pooled_) {
      if (TapeArena* arena = TapeArena::Current()) {
        arena->workspace().Release(std::move(m_));
      }
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  la::Matrix* get() { return &m_; }
  const la::Matrix& ref() const { return m_; }

 private:
  la::Matrix m_;
  bool pooled_ = false;
};

// Accumulate helper: parent must exist; allocates grad lazily.
void Accumulate(const Tensor& parent, const la::Matrix& contribution) {
  if (!parent->requires_grad) return;
  parent->EnsureGrad();
  la::Axpy(1.0f, contribution, &parent->grad);
}

// PUP_HOT
void GatherBackward(Node* self) {
  const Tensor& table = self->parents[0];
  if (!table->requires_grad) return;
  table->EnsureGrad();
  la::ScatterAddRows(self->grad, self->idx, &table->grad);
}

// PUP_HOT
void GatherAddBackward(Node* self) {
  const Tensor& table_a = self->parents[0];
  const Tensor& table_b = self->parents[1];
  // table_b scatters first: in the unfused Add(Gather(a), Gather(b))
  // composition the second gather precedes the first in reverse
  // topological order, and when both gathers hit the same table the
  // per-row accumulation order must match bitwise.
  if (table_b->requires_grad) {
    table_b->EnsureGrad();
    la::ScatterAddRows(self->grad, self->idx2, &table_b->grad);
  }
  if (table_a->requires_grad) {
    table_a->EnsureGrad();
    la::ScatterAddRows(self->grad, self->idx, &table_a->grad);
  }
}

void SpmmBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  Scratch gx(x->value.rows(), x->value.cols());
  la::Spmm(*self->csr, self->grad, gx.get());
  Accumulate(x, gx.ref());
}

// PUP_HOT
void SpmmRowsBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  la::SpmmRowsTransposedAdd(*self->csr, self->grad, *self->rows,
                            self->input_rows, &x->grad);
}

void MatMulBackward(Node* self) {
  const Tensor& a = self->parents[0];
  const Tensor& b = self->parents[1];
  if (a->requires_grad) {
    Scratch ga(a->value.rows(), a->value.cols());
    la::GemmTransB(self->grad, b->value, ga.get());
    Accumulate(a, ga.ref());
  }
  if (b->requires_grad) {
    Scratch gb(b->value.rows(), b->value.cols());
    la::GemmTransA(a->value, self->grad, gb.get());
    Accumulate(b, gb.ref());
  }
}

void AddBackward(Node* self) {
  Accumulate(self->parents[0], self->grad);
  Accumulate(self->parents[1], self->grad);
}

void SubBackward(Node* self) {
  Accumulate(self->parents[0], self->grad);
  const Tensor& b = self->parents[1];
  if (b->requires_grad) {
    Scratch neg(self->grad.rows(), self->grad.cols());
    la::Scale(-1.0f, self->grad, neg.get());
    Accumulate(b, neg.ref());
  }
}

void MulBackward(Node* self) {
  const Tensor& a = self->parents[0];
  const Tensor& b = self->parents[1];
  if (a->requires_grad) {
    Scratch ga(a->value.rows(), a->value.cols());
    la::Mul(self->grad, b->value, ga.get());
    Accumulate(a, ga.ref());
  }
  if (b->requires_grad) {
    Scratch gb(b->value.rows(), b->value.cols());
    la::Mul(self->grad, a->value, gb.get());
    Accumulate(b, gb.ref());
  }
}

void ScaleBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  Scratch gx(self->grad.rows(), self->grad.cols());
  la::Scale(self->alpha, self->grad, gx.get());
  Accumulate(x, gx.ref());
}

void AddBroadcastRowBackward(Node* self) {
  Accumulate(self->parents[0], self->grad);
  const Tensor& bias = self->parents[1];
  if (bias->requires_grad) {
    bias->EnsureGrad();
    for (size_t r = 0; r < self->grad.rows(); ++r) {
      const float* g = self->grad.Row(r);
      float* b = bias->grad.Row(0);
      for (size_t c = 0; c < self->grad.cols(); ++c) b[c] += g[c];
    }
  }
}

void TanhBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  for (size_t r = 0; r < self->value.rows(); ++r) {
    const float* y = self->value.Row(r);
    const float* g = self->grad.Row(r);
    float* gx = x->grad.Row(r);
    for (size_t c = 0; c < self->value.cols(); ++c) {
      gx[c] += g[c] * (1.0f - y[c] * y[c]);
    }
  }
}

void SigmoidBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  for (size_t r = 0; r < self->value.rows(); ++r) {
    const float* y = self->value.Row(r);
    const float* g = self->grad.Row(r);
    float* gx = x->grad.Row(r);
    for (size_t c = 0; c < self->value.cols(); ++c) {
      gx[c] += g[c] * y[c] * (1.0f - y[c]);
    }
  }
}

void LeakyReluBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  for (size_t r = 0; r < x->value.rows(); ++r) {
    const float* xv = x->value.Row(r);
    const float* g = self->grad.Row(r);
    float* gx = x->grad.Row(r);
    for (size_t c = 0; c < x->value.cols(); ++c) {
      float factor = xv[c] > 0.0f ? 1.0f : self->alpha;
      gx[c] += g[c] * factor;
    }
  }
}

void RowDotBackward(Node* self) {
  const Tensor& a = self->parents[0];
  const Tensor& b = self->parents[1];
  if (a->requires_grad) {
    Scratch ga(a->value.rows(), a->value.cols());
    la::RowScale(b->value, self->grad, ga.get());
    Accumulate(a, ga.ref());
  }
  if (b->requires_grad) {
    Scratch gb(b->value.rows(), b->value.cols());
    la::RowScale(a->value, self->grad, gb.get());
    Accumulate(b, gb.ref());
  }
}

void RowSumBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  for (size_t r = 0; r < x->grad.rows(); ++r) {
    float g = self->grad(r, 0);
    float* row = x->grad.Row(r);
    for (size_t c = 0; c < x->grad.cols(); ++c) row[c] += g;
  }
}

void ConcatColsBackward(Node* self) {
  size_t offs = 0;
  for (const Tensor& p : self->parents) {
    size_t pc = p->value.cols();
    if (p->requires_grad) {
      p->EnsureGrad();
      for (size_t r = 0; r < p->value.rows(); ++r) {
        const float* g = self->grad.Row(r) + offs;
        float* dst = p->grad.Row(r);
        for (size_t c = 0; c < pc; ++c) dst[c] += g[c];
      }
    }
    offs += pc;
  }
}

void ConcatRowsBackward(Node* self) {
  size_t offs = 0;
  for (const Tensor& p : self->parents) {
    if (p->requires_grad) {
      p->EnsureGrad();
      for (size_t r = 0; r < p->value.rows(); ++r) {
        const float* g = self->grad.Row(offs + r);
        float* dst = p->grad.Row(r);
        for (size_t c = 0; c < p->value.cols(); ++c) dst[c] += g[c];
      }
    }
    offs += p->value.rows();
  }
}

void DropoutBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  Scratch gx(x->value.rows(), x->value.cols());
  la::Mul(self->grad, self->aux, gx.get());
  Accumulate(x, gx.ref());
}

void MeanBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  float g = self->grad(0, 0) / static_cast<float>(x->value.size());
  for (size_t r = 0; r < x->grad.rows(); ++r) {
    float* row = x->grad.Row(r);
    for (size_t c = 0; c < x->grad.cols(); ++c) row[c] += g;
  }
}

void SumAllBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  float g = self->grad(0, 0);
  for (size_t r = 0; r < x->grad.rows(); ++r) {
    float* row = x->grad.Row(r);
    for (size_t c = 0; c < x->grad.cols(); ++c) row[c] += g;
  }
}

void SquaredNormBackward(Node* self) {
  const Tensor& x = self->parents[0];
  if (!x->requires_grad) return;
  x->EnsureGrad();
  float g = 2.0f * self->grad(0, 0);
  for (size_t r = 0; r < x->grad.rows(); ++r) {
    const float* xv = x->value.Row(r);
    float* row = x->grad.Row(r);
    for (size_t c = 0; c < x->grad.cols(); ++c) row[c] += g * xv[c];
  }
}

void AddScalarsBackward(Node* self) {
  for (const Tensor& p : self->parents) {
    if (!p->requires_grad) continue;
    p->EnsureGrad();
    p->grad(0, 0) += self->grad(0, 0);
  }
}

void BprLossBackward(Node* self) {
  const Tensor& pos = self->parents[0];
  const Tensor& neg = self->parents[1];
  const size_t n = self->aux.rows();
  float g = self->grad(0, 0) / static_cast<float>(n);
  if (pos->requires_grad) {
    pos->EnsureGrad();
    for (size_t i = 0; i < n; ++i) {
      pos->grad(i, 0) -= g * self->aux(i, 0);
    }
  }
  if (neg->requires_grad) {
    neg->EnsureGrad();
    for (size_t i = 0; i < n; ++i) {
      neg->grad(i, 0) += g * self->aux(i, 0);
    }
  }
}

void MseLossBackward(Node* self) {
  const Tensor& pred = self->parents[0];
  if (!pred->requires_grad) return;
  pred->EnsureGrad();
  const size_t n = self->aux.size();
  float g = 2.0f * self->grad(0, 0) / static_cast<float>(n);
  for (size_t r = 0; r < self->aux.rows(); ++r) {
    const float* d = self->aux.Row(r);
    float* gp = pred->grad.Row(r);
    for (size_t c = 0; c < self->aux.cols(); ++c) gp[c] += g * d[c];
  }
}

// PUP_HOT
void RowDotSigmoidBprBackward(Node* self) {
  const Tensor& u = self->parents[0];
  const Tensor& p = self->parents[1];
  const Tensor& n = self->parents[2];
  const size_t rows = self->aux.rows();
  const size_t cols = u->value.cols();
  const float g = self->grad(0, 0) / static_cast<float>(rows);
  if (u->requires_grad) u->EnsureGrad();
  if (p->requires_grad) p->EnsureGrad();
  if (n->requires_grad) n->EnsureGrad();
  const bool gu = u->requires_grad, gp = p->requires_grad,
             gn = n->requires_grad;
  // Every row touches disjoint gradient locations, so row-parallelism is
  // bitwise-invariant across thread counts. Per row, the accumulation
  // sequence replays the unfused composition exactly: the negative
  // RowDot's contributions land before the positive one's.
  const size_t grain =
      std::max<size_t>(1, (size_t{1} << 14) / std::max<size_t>(1, 6 * cols));
  ParallelFor(0, rows, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float sig = self->aux(i, 0);
      // Exactly the values the unfused BprLoss accumulates into the two
      // RowDot nodes' (zero-initialized) grads: 0 + g·σ and 0 − g·σ.
      const float gneg = 0.0f + g * sig;
      const float gpos = 0.0f - g * sig;
      const float* ur = u->value.Row(i);
      const float* pr = p->value.Row(i);
      const float* nr = n->value.Row(i);
      if (gu) {
        float* ug = u->grad.Row(i);
        for (size_t j = 0; j < cols; ++j) ug[j] += nr[j] * gneg;
        for (size_t j = 0; j < cols; ++j) ug[j] += pr[j] * gpos;
      }
      if (gn) {
        float* ng = n->grad.Row(i);
        for (size_t j = 0; j < cols; ++j) ng[j] += ur[j] * gneg;
      }
      if (gp) {
        float* pg = p->grad.Row(i);
        for (size_t j = 0; j < cols; ++j) pg[j] += ur[j] * gpos;
      }
    }
  });
}

// PUP_HOT
void FusedL2PenaltyBackward(Node* self) {
  const float g = self->grad(0, 0);
  const Tensor& base = self->parents[0];
  if (base->requires_grad) {
    base->EnsureGrad();
    base->grad(0, 0) += g;
  }
  // 2·(factor·g): the gradient each unfused SquaredNorm node would see
  // after the Scale and AddScalars hops. Terms are distinct tensors in
  // every caller, so the iteration order across terms only has to match
  // the composition per term, not across them.
  const float gterm = 2.0f * (self->alpha * g);
  for (size_t k = 1; k < self->parents.size(); ++k) {
    const Tensor& t = self->parents[k];
    if (!t->requires_grad) continue;
    t->EnsureGrad();
    for (size_t r = 0; r < t->value.rows(); ++r) {
      const float* x = t->value.Row(r);
      float* gd = t->grad.Row(r);
      for (size_t c = 0; c < t->value.cols(); ++c) gd[c] += gterm * x[c];
    }
  }
}

}  // namespace

// PUP_HOT
Tensor Gather(const Tensor& table, const std::vector<uint32_t>& idx) {
  Tensor node = NewOpNode("gather", &GatherBackward, table);
  // NOLINTNEXTLINE(pup-hot-alloc) — assign reuses the recycled capacity.
  node->idx.assign(idx.begin(), idx.end());
  la::GatherRows(table->value, node->idx, &node->value);
  return node;
}

// PUP_HOT
Tensor GatherAdd(const Tensor& table_a, const std::vector<uint32_t>& idx_a,
                 const Tensor& table_b, const std::vector<uint32_t>& idx_b) {
  PUP_CHECK_EQ(idx_a.size(), idx_b.size());
  Tensor node = NewOpNode("gather_add", &GatherAddBackward, table_a, table_b);
  // NOLINTNEXTLINE(pup-hot-alloc) — assign reuses the recycled capacity.
  node->idx.assign(idx_a.begin(), idx_a.end());
  // NOLINTNEXTLINE(pup-hot-alloc) — assign reuses the recycled capacity.
  node->idx2.assign(idx_b.begin(), idx_b.end());
  la::GatherRowsAdd(table_a->value, node->idx, table_b->value, node->idx2,
                    &node->value);
  return node;
}

Tensor Spmm(const la::CsrMatrix* a, const la::CsrMatrix* a_transposed,
            const Tensor& x) {
  PUP_CHECK(a != nullptr && a_transposed != nullptr);
  PUP_CHECK_EQ(a->rows(), a_transposed->cols());
  PUP_CHECK_EQ(a->cols(), a_transposed->rows());
  Tensor node = NewOpNode("spmm", &SpmmBackward, x);
  node->csr = a_transposed;
  la::Spmm(*a, x->value, &node->value);
  return node;
}

// PUP_HOT
Tensor SpmmRows(const la::CsrMatrix* a, const la::CsrMatrix* a_transposed,
                const Tensor& x, const la::RowSubset* rows,
                const la::RowSubset* x_rows) {
  PUP_CHECK(a != nullptr && a_transposed != nullptr && rows != nullptr);
  PUP_CHECK_EQ(a->rows(), a_transposed->cols());
  PUP_CHECK_EQ(a->cols(), a_transposed->rows());
  Tensor node = NewOpNode("spmm_rows", &SpmmRowsBackward, x);
  node->csr = a_transposed;
  node->rows = rows;
  node->input_rows = x_rows;
  la::SpmmRows(*a, x->value, x_rows, *rows, &node->value);
  return node;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor node = NewOpNode("matmul", &MatMulBackward, a, b);
  la::Gemm(a->value, b->value, &node->value);
  return node;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor node = NewOpNode("add", &AddBackward, a, b);
  la::Add(a->value, b->value, &node->value);
  return node;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor node = NewOpNode("sub", &SubBackward, a, b);
  la::Sub(a->value, b->value, &node->value);
  return node;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor node = NewOpNode("mul", &MulBackward, a, b);
  la::Mul(a->value, b->value, &node->value);
  return node;
}

Tensor Scale(const Tensor& x, float alpha) {
  Tensor node = NewOpNode("scale", &ScaleBackward, x);
  node->alpha = alpha;
  la::Scale(alpha, x->value, &node->value);
  return node;
}

Tensor AddBroadcastRow(const Tensor& x, const Tensor& bias) {
  PUP_CHECK_EQ(bias->value.rows(), 1u);
  PUP_CHECK_EQ(bias->value.cols(), x->value.cols());
  Tensor node = NewOpNode("add_broadcast_row", &AddBroadcastRowBackward, x, bias);
  const size_t rows = x->value.rows(), cols = x->value.cols();
  node->value.ResizeNoZero(rows, cols);
  const float* b = bias->value.Row(0);
  for (size_t r = 0; r < rows; ++r) {
    const float* src = x->value.Row(r);
    float* dst = node->value.Row(r);
    for (size_t c = 0; c < cols; ++c) dst[c] = src[c] + b[c];
  }
  return node;
}

Tensor Tanh(const Tensor& x) {
  Tensor node = NewOpNode("tanh", &TanhBackward, x);
  la::Tanh(x->value, &node->value);
  return node;
}

Tensor Sigmoid(const Tensor& x) {
  Tensor node = NewOpNode("sigmoid", &SigmoidBackward, x);
  la::Sigmoid(x->value, &node->value);
  return node;
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  Tensor node = NewOpNode("leaky_relu", &LeakyReluBackward, x);
  node->alpha = slope;
  la::LeakyRelu(x->value, slope, &node->value);
  return node;
}

Tensor RowDot(const Tensor& a, const Tensor& b) {
  Tensor node = NewOpNode("row_dot", &RowDotBackward, a, b);
  la::RowDot(a->value, b->value, &node->value);
  return node;
}

Tensor RowSum(const Tensor& x) {
  Tensor node = NewOpNode("row_sum", &RowSumBackward, x);
  la::RowSum(x->value, &node->value);
  return node;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  PUP_CHECK(!parts.empty());
  size_t rows = parts[0]->value.rows();
  size_t total_cols = 0;
  for (const Tensor& p : parts) {
    PUP_CHECK_EQ(p->value.rows(), rows);
    total_cols += p->value.cols();
  }
  Tensor node = NewOpNode("concat_cols", &ConcatColsBackward, parts);
  node->value.ResizeNoZero(rows, total_cols);
  size_t offset = 0;
  for (const Tensor& p : parts) {
    for (size_t r = 0; r < rows; ++r) {
      const float* src = p->value.Row(r);
      float* dst = node->value.Row(r) + offset;
      std::copy(src, src + p->value.cols(), dst);
    }
    offset += p->value.cols();
  }
  return node;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  PUP_CHECK(!parts.empty());
  size_t cols = parts[0]->value.cols();
  size_t total_rows = 0;
  for (const Tensor& p : parts) {
    PUP_CHECK_EQ(p->value.cols(), cols);
    total_rows += p->value.rows();
  }
  Tensor node = NewOpNode("concat_rows", &ConcatRowsBackward, parts);
  node->value.ResizeNoZero(total_rows, cols);
  size_t offset = 0;
  for (const Tensor& p : parts) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      const float* src = p->value.Row(r);
      std::copy(src, src + cols, node->value.Row(offset + r));
    }
    offset += p->value.rows();
  }
  return node;
}

// PUP_HOT
Tensor Dropout(const Tensor& x, float p, Rng* rng, bool training,
               std::span<const uint32_t> row_ids) {
  if (!training || p <= 0.0f) return x;
  PUP_CHECK_MSG(p < 1.0f, "dropout probability must be < 1");
  PUP_CHECK(rng != nullptr);
  PUP_CHECK(row_ids.empty() || row_ids.size() == x->value.rows());
  Tensor node = NewOpNode("dropout", &DropoutBackward, x);
  const size_t rows = x->value.rows(), cols = x->value.cols();
  node->aux.ResizeNoZero(rows, cols);
  node->value.ResizeNoZero(rows, cols);
  const uint64_t key = rng->NextU64();
  const float keep_scale = 1.0f / (1.0f - p);
  // Entry (id, c) drops iff its 53-bit uniform KeyedHash(key, id·2³² + c)
  // / 2⁵³ is below p; for an integer u that is u < ceil(p·2⁵³).
  const uint64_t drop_below =
      static_cast<uint64_t>(std::ceil(std::ldexp(static_cast<double>(p), 53)));
  const size_t grain = RowGrain(kDropoutDrawCost * cols);
  ParallelFor(0, rows, grain, [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      const uint64_t id = row_ids.empty() ? r : row_ids[r];
      const float* xr = x->value.Row(r);
      float* mask = node->aux.Row(r);
      float* out = node->value.Row(r);
      for (size_t c = 0; c < cols; ++c) {
        const uint64_t u = KeyedHash(key, (id << 32) | c) >> 11;
        mask[c] = u < drop_below ? 0.0f : keep_scale;
        out[c] = xr[c] * mask[c];
      }
    }
  });
  return node;
}

Tensor Mean(const Tensor& x) {
  PUP_CHECK_GT(x->value.size(), 0u);
  Tensor node = NewOpNode("mean", &MeanBackward, x);
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) = static_cast<float>(la::Sum(x->value) /
                                         static_cast<double>(x->value.size()));
  return node;
}

Tensor SumAll(const Tensor& x) {
  Tensor node = NewOpNode("sum_all", &SumAllBackward, x);
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) = static_cast<float>(la::Sum(x->value));
  return node;
}

Tensor SquaredNorm(const Tensor& x) {
  Tensor node = NewOpNode("squared_norm", &SquaredNormBackward, x);
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) = static_cast<float>(la::SquaredNorm(x->value));
  return node;
}

Tensor AddScalars(const std::vector<Tensor>& scalars) {
  PUP_CHECK(!scalars.empty());
  float acc = 0.0f;
  for (const Tensor& s : scalars) {
    PUP_CHECK(s->value.rows() == 1 && s->value.cols() == 1);
    acc += s->value(0, 0);
  }
  Tensor node = NewOpNode("add_scalars", &AddScalarsBackward, scalars);
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) = acc;
  return node;
}

Tensor BprLoss(const Tensor& pos_scores, const Tensor& neg_scores) {
  PUP_CHECK(pos_scores->value.SameShape(neg_scores->value));
  PUP_CHECK_EQ(pos_scores->value.cols(), 1u);
  const size_t n = pos_scores->value.rows();
  PUP_CHECK_GT(n, 0u);

  Tensor node = NewOpNode("bpr_loss", &BprLossBackward, pos_scores, neg_scores);
  // Cache σ(neg − pos) in aux: both the backward factor and 1 − σ(diff).
  node->aux.ResizeNoZero(n, 1);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    float d = neg_scores->value(i, 0) - pos_scores->value(i, 0);
    // softplus(d) = log(1 + e^d), computed stably.
    float sp = d > 0.0f ? d + std::log1p(std::exp(-d))
                        : std::log1p(std::exp(d));
    total += sp;
    node->aux(i, 0) = d >= 0.0f ? 1.0f / (1.0f + std::exp(-d))
                                : std::exp(d) / (1.0f + std::exp(d));
  }
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) = static_cast<float>(total / static_cast<double>(n));
  return node;
}

Tensor MseLoss(const Tensor& pred, const la::Matrix& target) {
  PUP_CHECK(pred->value.SameShape(target));
  const size_t n = pred->value.size();
  PUP_CHECK_GT(n, 0u);
  Tensor node = NewOpNode("mse_loss", &MseLossBackward, pred);
  la::Sub(pred->value, target, &node->aux);
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) =
      static_cast<float>(la::SquaredNorm(node->aux) / static_cast<double>(n));
  return node;
}

// PUP_HOT
Tensor RowDotSigmoidBpr(const Tensor& u, const Tensor& p, const Tensor& n) {
  PUP_CHECK(u->value.SameShape(p->value));
  PUP_CHECK(u->value.SameShape(n->value));
  const size_t rows = u->value.rows();
  PUP_CHECK_GT(rows, 0u);
  Tensor node = NewOpNode("row_dot_sigmoid_bpr", &RowDotSigmoidBprBackward, u, p, n);
  // aux(i, 0) holds the score difference neg − pos, then (in the serial
  // reduction below) is overwritten with σ(diff), the backward factor.
  la::RowDotDiff(u->value, p->value, n->value, &node->aux);
  double total = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    const float d = node->aux(i, 0);
    const float sp = d > 0.0f ? d + std::log1p(std::exp(-d))
                              : std::log1p(std::exp(d));
    total += sp;
    node->aux(i, 0) = d >= 0.0f ? 1.0f / (1.0f + std::exp(-d))
                                : std::exp(d) / (1.0f + std::exp(d));
  }
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) = static_cast<float>(total / static_cast<double>(rows));
  return node;
}

// PUP_HOT
Tensor FusedL2Penalty(const Tensor& base, const std::vector<Tensor>& terms,
                      float factor) {
  PUP_CHECK(base->value.rows() == 1 && base->value.cols() == 1);
  PUP_CHECK(!terms.empty());
  Tensor node;
  if (TapeArena* arena = TapeArena::Current()) {
    node = arena->NewNode();
  } else {
    node = internal::NewHeapNode();
  }
  node->op_name = "fused_l2_penalty";
  // NOLINTNEXTLINE(pup-hot-alloc) — recycled nodes keep parent capacity.
  node->parents.push_back(base);
  // NOLINTNEXTLINE(pup-hot-alloc) — recycled nodes keep parent capacity.
  for (const Tensor& t : terms) node->parents.push_back(t);
  for (const Tensor& p : node->parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  if (node->requires_grad) node->backward_fn = &FusedL2PenaltyBackward;
  node->alpha = factor;
  // Same float sequence as the unfused composition: the penalties sum in
  // term order from a zero accumulator (AddScalars), one multiply by the
  // factor (Scale), then base + scaled (outer AddScalars).
  float reg = 0.0f;
  for (const Tensor& t : terms) {
    reg += static_cast<float>(la::SquaredNorm(t->value));
  }
  float out = 0.0f;
  out += base->value(0, 0);
  out += factor * reg;
  node->value.ResizeNoZero(1, 1);
  node->value(0, 0) = out;
  return node;
}

}  // namespace pup::ag
