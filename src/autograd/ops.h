// Differentiable operations over ag::Tensor.
//
// Each op computes its forward value eagerly and installs a backward
// function. Ops only track gradients through parents with
// requires_grad = true; subgraphs of constants cost nothing at backward.
//
// When a TapeArena scope is active (arena.h), ops draw recycled nodes
// from it and backward scratch buffers from its WorkspaceCache, making
// steady-state tape construction allocation-free; otherwise nodes are
// heap-allocated exactly as before.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "autograd/tensor.h"
#include "common/rng.h"
#include "la/csr.h"
#include "la/row_subset.h"

namespace pup::ag {

/// Selects rows of `table` by index: out.Row(i) = table.Row(idx[i]).
/// Backward scatter-adds into the table's gradient. The indices are
/// copied into the node (capacity-reusing under an arena).
Tensor Gather(const Tensor& table, const std::vector<uint32_t>& idx);

/// Fused Gather + Gather + Add over two tables (which may be the same):
/// out.Row(i) = table_a.Row(idx_a[i]) + table_b.Row(idx_b[i]).
/// Bitwise-identical to Add(Gather(a, ia), Gather(b, ib)) — including the
/// backward scatter order (table_b first, matching the reverse
/// topological order of the unfused composition) — with one tape node and
/// one output buffer instead of three.
Tensor GatherAdd(const Tensor& table_a, const std::vector<uint32_t>& idx_a,
                 const Tensor& table_b, const std::vector<uint32_t>& idx_b);

/// Sparse-dense product out = A * x.
///
/// `a` and `a_transposed` must outlive the computation graph (the model
/// owns them); `a_transposed` is used by the backward pass
/// (grad_x = Aᵀ · grad_out).
Tensor Spmm(const la::CsrMatrix* a, const la::CsrMatrix* a_transposed,
            const Tensor& x);

/// Row-restricted sparse-dense product over the compact layout of
/// `rows`: out.Row(k) = (A * X).Row(rows->ids()[k]). X is x itself when
/// `x_rows` is null, else x is compact over `x_rows` and must hold every
/// row the selected rows of A reach (la::SpmmRows). Forward rows are
/// bitwise equal to the matching rows of Spmm(a, a_transposed, X); the
/// backward sends the gradient through the `rows` columns of Aᵀ only
/// (la::SpmmRowsTransposedAdd), into x's rows — all of them, or the
/// members of `x_rows` — bitwise equal to Spmm's backward with a gradient
/// that is zero outside `rows`. `a`, `a_transposed` and both subsets are
/// borrowed and must outlive the computation graph.
Tensor SpmmRows(const la::CsrMatrix* a, const la::CsrMatrix* a_transposed,
                const Tensor& x, const la::RowSubset* rows,
                const la::RowSubset* x_rows = nullptr);

/// Dense product out = a * b.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Elementwise sum (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// Scalar multiple alpha * x.
Tensor Scale(const Tensor& x, float alpha);

/// Adds a (1, n) bias row to every row of the (m, n) input.
Tensor AddBroadcastRow(const Tensor& x, const Tensor& bias);

/// Elementwise tanh.
Tensor Tanh(const Tensor& x);

/// Elementwise logistic sigmoid.
Tensor Sigmoid(const Tensor& x);

/// Elementwise leaky ReLU; slope = 0 gives plain ReLU.
Tensor LeakyRelu(const Tensor& x, float slope = 0.0f);

/// Per-row inner product of two (n, d) inputs -> (n, 1).
Tensor RowDot(const Tensor& a, const Tensor& b);

/// Per-row sum of an (n, d) input -> (n, 1).
Tensor RowSum(const Tensor& x);

/// Horizontal concatenation of matrices with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Vertical concatenation of matrices with equal column counts.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Inverted dropout: at train time zeroes entries with probability p and
/// scales survivors by 1/(1-p); identity when !training or p == 0.
///
/// The mask is counter-based: each call draws one 64-bit key from `rng`,
/// and entry (r, c) drops by KeyedHash(key, id·2³² + c), where id is
/// row_ids[r] (or r when row_ids is empty). A row's mask thus depends
/// only on the key and its id — not on which other rows are present, the
/// thread count, or the order rows are visited — so a compact tensor over
/// a frontier of node ids draws exactly the mask those nodes' rows get in
/// the full table.
Tensor Dropout(const Tensor& x, float p, Rng* rng, bool training,
               std::span<const uint32_t> row_ids = {});

/// Mean of all entries -> (1, 1) scalar.
Tensor Mean(const Tensor& x);

/// Sum of all entries -> (1, 1) scalar.
Tensor SumAll(const Tensor& x);

/// Squared Frobenius norm -> (1, 1) scalar. Used for L2 regularization of
/// the embeddings gathered in a batch.
Tensor SquaredNorm(const Tensor& x);

/// Sum of (1, 1) scalars -> (1, 1).
Tensor AddScalars(const std::vector<Tensor>& scalars);

/// BPR pairwise ranking loss: mean_i softplus(neg_i - pos_i)
/// = mean_i −ln σ(pos_i − neg_i), over (n, 1) score columns.
///
/// Fidelity note: eq. (4) of the paper as typeset reads
/// −ln(σ(s(u,i)) − σ(s(u,j))), whose argument can be negative; the cited
/// BPR reference [5] (and the authors' released code) use the standard
/// −ln σ(s(u,i) − s(u,j)), which is what this implements.
Tensor BprLoss(const Tensor& pos_scores, const Tensor& neg_scores);

/// Mean squared error against a constant target -> (1, 1).
Tensor MseLoss(const Tensor& pred, const la::Matrix& target);

/// Fused BPR head over (B, d) user/positive/negative representations:
/// scores both pairs, applies the BPR loss, and backpropagates straight
/// into the three inputs from one node. Bitwise-identical (forward and
/// backward, at any thread count) to
///   BprLoss(RowDot(u, p), RowDot(u, n))
/// but removes three tape nodes and two (B, 1) intermediates per batch.
Tensor RowDotSigmoidBpr(const Tensor& u, const Tensor& p, const Tensor& n);

/// Fused L2 penalty: base + factor * Σ_k ‖terms[k]‖²  -> (1, 1).
/// Bitwise-identical to the unfused trainer composition
///   AddScalars({base, Scale(AddScalars({SquaredNorm(t)...}), factor)})
/// (including its penalties.size()==1 special case and the reverse-order
/// backward scatter), replacing 2 + |terms| scalar nodes and their
/// backward scratch with a single in-place node.
Tensor FusedL2Penalty(const Tensor& base, const std::vector<Tensor>& terms,
                      float factor);

}  // namespace pup::ag
