// Dense and sparse compute kernels.
//
// Free functions over Matrix/CsrMatrix; the autograd layer composes these
// into differentiable ops. All kernels assert shape agreement.
//
// Kernels parallelize over row blocks (or flat element blocks) through
// the global thread pool; a --threads=1 pool reproduces the historical
// serial implementation bitwise. ScatterAddRows stays bitwise-identical
// to serial at every thread count via destination-row sharding; the
// scalar reductions (Sum/SquaredNorm/Dot) combine fixed-size chunk
// partials in chunk order. The serving scoring kernels are the exception:
// they run on the calling thread. See docs/threading.md.
#pragma once

#include <cstdint>
#include <vector>

#include "la/csr.h"
#include "la/matrix.h"
#include "la/qmatrix.h"
#include "la/row_subset.h"

namespace pup::la {

/// out = a * b. Shapes: (m,k) x (k,n) -> (m,n).
void Gemm(const Matrix& a, const Matrix& b, Matrix* out);

/// out = aᵀ * b. Shapes: (k,m) x (k,n) -> (m,n).
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * bᵀ. Shapes: (m,k) x (n,k) -> (m,n).
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// out = sparse * dense. Shapes: (m,k)sparse x (k,n) -> (m,n).
void Spmm(const CsrMatrix& sparse, const Matrix& dense, Matrix* out);

/// Row-restricted Spmm over the compact layout of `rows`:
/// out.Row(k) = (sparse * X).Row(rows.ids()[k]), shape (|rows|, n). X is
/// `dense` itself when `dense_rows` is null; otherwise `dense` is compact
/// over `dense_rows` (X.Row(c) = dense.Row(dense_rows->Position(c))), and
/// every column the selected rows reach must be a member. Each row sums
/// its entries in Spmm's order, so it is bitwise equal to the matching
/// row of Spmm(sparse, X) at any thread count.
void SpmmRows(const CsrMatrix& sparse, const Matrix& dense,
              const RowSubset* dense_rows, const RowSubset& rows,
              Matrix* out);

/// The backward of SpmmRows: out += sparse_tᵀ-restricted product, where
/// `sparse_t` is the transpose of SpmmRows' matrix and `grad` is compact
/// over `rows`. For each row j of sparse_t (every row when `out_rows` is
/// null, else the members of `out_rows`, out.Row(out_rows->Position(j))):
///   out.Row(j) += Σ sparse_t(j, i) · grad.Row(rows.Position(i))
/// over the entries whose column i is in `rows`, in ascending i — the
/// per-row sum of the full product Spmm(sparse_t, G) where G is zero
/// outside `rows`, added once, so the result is bitwise equal to adding
/// that full product. Rows with no entry in `rows` are left untouched.
void SpmmRowsTransposedAdd(const CsrMatrix& sparse_t, const Matrix& grad,
                           const RowSubset& rows, const RowSubset* out_rows,
                           Matrix* out);

/// out += alpha * x (elementwise, same shape).
void Axpy(float alpha, const Matrix& x, Matrix* out);

/// out = x + y.
void Add(const Matrix& x, const Matrix& y, Matrix* out);

/// out = x - y.
void Sub(const Matrix& x, const Matrix& y, Matrix* out);

/// out = x ⊙ y (Hadamard).
void Mul(const Matrix& x, const Matrix& y, Matrix* out);

/// out = alpha * x.
void Scale(float alpha, const Matrix& x, Matrix* out);

/// out(r,c) = tanh(x(r,c)).
void Tanh(const Matrix& x, Matrix* out);

/// out(r,c) = sigmoid(x(r,c)) computed in a numerically stable way.
void Sigmoid(const Matrix& x, Matrix* out);

/// out(r,c) = max(x(r,c), slope * x(r,c)). slope = 0 gives plain ReLU.
void LeakyRelu(const Matrix& x, float slope, Matrix* out);

/// out = rows of `table` selected by `idx`: out.Row(i) = table.Row(idx[i]).
void GatherRows(const Matrix& table, const std::vector<uint32_t>& idx,
                Matrix* out);

/// Fused gather + add: out.Row(i) = table_a.Row(idx_a[i]) +
/// table_b.Row(idx_b[i]). One pass instead of two gathers and an add;
/// bitwise-identical to the unfused composition.
void GatherRowsAdd(const Matrix& table_a, const std::vector<uint32_t>& idx_a,
                   const Matrix& table_b, const std::vector<uint32_t>& idx_b,
                   Matrix* out);

/// table.Row(idx[i]) += src.Row(i) for all i (duplicates accumulate).
void ScatterAddRows(const Matrix& src, const std::vector<uint32_t>& idx,
                    Matrix* table);

/// out(i,0) = dot(x.Row(i), y.Row(i)). Shapes: (n,d),(n,d) -> (n,1).
void RowDot(const Matrix& x, const Matrix& y, Matrix* out);

/// Pairwise score difference for BPR: out(i,0) = dot(x.Row(i), b.Row(i))
/// − dot(x.Row(i), a.Row(i)), each dot accumulated independently in
/// element order (bitwise-matching the two-RowDot composition).
void RowDotDiff(const Matrix& x, const Matrix& a, const Matrix& b,
                Matrix* out);

/// out(i,0) = sum of row i. Shape: (n,d) -> (n,1).
void RowSum(const Matrix& x, Matrix* out);

/// Broadcast each row of x (n,d) by the scalar column s (n,1):
/// out(i,j) = x(i,j) * s(i,0).
void RowScale(const Matrix& x, const Matrix& s, Matrix* out);

/// Sum of all entries.
double Sum(const Matrix& x);

/// Sum of squared entries (squared Frobenius norm).
double SquaredNorm(const Matrix& x);

/// Dot product of two same-shape matrices viewed as flat vectors.
double Dot(const Matrix& x, const Matrix& y);

/// Maximum absolute entry.
float MaxAbs(const Matrix& x);

/// y = A x for a dense (m,d) matrix and a length-d vector (d,1) -> (m,1).
void Gemv(const Matrix& a, const Matrix& x, Matrix* out);

// Serving-layer scoring entry points (docs/serving.md). Both route
// through the active backend's shared row-dot primitive (pinned lane
// accumulation order), so the full-catalog and candidate-subset paths
// produce bitwise-identical floats for the same backend — the mechanism
// behind the serve-vs-eval ranking parity contract. The optional `bias`
// (length items.rows(), nullptr for none) is added after each dot
// product. `user` must be 64-byte aligned when items.cols() >= 8 (any
// padded Matrix row or Matrix::data() qualifies). Like the quantized
// pair below, they run on the calling thread and never touch the pool.

/// out[i] = dot(items.Row(i), user) + bias[i] for every item; `out`
/// holds items.rows() floats.
void ScoreItemsForUser(const Matrix& items, const float* user,
                       const float* bias, float* out);

/// Candidate re-rank form: out[j] = dot(items.Row(idx[j]), user) +
/// bias[idx[j]] for j in [0, n_idx). Ids in `idx` must be < items.rows().
void ScoreItemsSubset(const Matrix& items, const float* user,
                      const float* bias, const uint32_t* idx, size_t n_idx,
                      float* out);

// Quantized fastscan scoring (docs/quantization.md). Unlike the f32
// entry points above — bitwise-stable only per lane width — these two
// are bitwise-identical across EVERY backend: the fastscan dot
// accumulates in exact int32 arithmetic, the dequant epilogue is
// fixed-order scalar math, and the re-rank dot runs in a pinned
// 16-virtual-lane shape on all ISAs.

/// out[i] = scales[i]*q.scale*acc[i] + mins[i]*q.scale*q.code_sum
///          (+ bias[i]) — the affine-dequantized approximate score of
/// every item row against the quantized query. `acc` is caller scratch
/// of table.rows() int32s (the exact integer dots land there); `out`
/// holds table.rows() floats. Never allocates.
void ScoreItemsQuantized(const QuantizedTable& table,
                         const QuantizedQuery& query, const float* bias,
                         int32_t* acc, float* out);

/// Exact-f32 survivor re-rank: out[j] = dot(items.Row(ids[j]), user) +
/// bias[ids[j]] via the pinned-16-virtual-lane backend dot, so the
/// refined scores (and thus the final ranking) are bitwise-identical on
/// every backend. `user` must be a padded Matrix row (or any 64-byte
/// aligned buffer readable through the next 16-float boundary).
void ScoreItemsRerank(const Matrix& items, const float* user,
                      const float* bias, const uint32_t* ids, size_t n_ids,
                      float* out);

/// True iff every entry is finite (no NaN, no ±Inf). Branch-free blockwise
/// scan (one multiply + compare per element, vectorizable) — the fast path
/// of the numeric sentinels (ag::NumericGuard, Matrix::AssertFinite).
/// Never allocates, so clean training steps stay allocation-free.
bool AllFinite(const Matrix& x);

/// Failure-path diagnostics for a matrix that failed AllFinite.
struct NonFiniteCounts {
  size_t nans = 0;
  size_t infs = 0;
  /// Flat (row-major) index of the first non-finite entry; x.size() when
  /// the matrix is clean.
  size_t first_index = 0;
};

/// Counts NaN / ±Inf entries and locates the first one. Serial elementwise
/// walk; only ever called after AllFinite has already failed.
NonFiniteCounts CountNonFinite(const Matrix& x);

}  // namespace pup::la
