// Tape-based reverse-mode automatic differentiation over la::Matrix.
//
// A Tensor is a shared handle to a Node in a dynamically built computation
// graph. Ops (ops.h) create new nodes holding forward values and a
// backward function that accumulates gradients into their parents.
// Backward(loss) runs the tape in reverse topological order.
//
// The graph is rebuilt every training step (define-by-run), which matches
// the minibatch BPR training loop: gather → propagate → decode → loss.
// To make that rebuild allocation-free in steady state, nodes carry their
// op state inline (index lists, an auxiliary matrix, a scalar, a sparse
// operand) instead of per-op closures, and the TapeArena (arena.h) hands
// out recycled nodes whose buffers keep their capacity across steps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "la/matrix.h"

namespace pup::la {
class CsrMatrix;
class RowSubset;
}  // namespace pup::la

namespace pup::ag {

class Node;

/// Shared handle to a computation-graph node.
using Tensor = std::shared_ptr<Node>;

/// One value in the computation graph plus its backward function.
class Node {
 public:
  /// Accumulates this node's grad into its parents' grads. A plain
  /// function pointer (not std::function): ops are closed-form over the
  /// state fields below, and a pointer never heap-allocates.
  using BackwardFn = void (*)(Node*);

  /// Forward value.
  la::Matrix value;

  /// Gradient of the loss w.r.t. `value`; see grad_live() for validity.
  la::Matrix grad;

  /// Whether gradients should flow to (and through) this node.
  bool requires_grad = false;

  /// Upstream nodes this value was computed from.
  std::vector<Tensor> parents;

  /// Backward function; null for leaves.
  BackwardFn backward_fn = nullptr;

  /// Static name of the op that produced `value` ("gather", "gemm", ...;
  /// "param"/"constant" for leaves). Provenance for numeric-safety
  /// diagnostics (NumericGuard); always a string literal, never owned.
  const char* op_name = "leaf";

  // --- Op state (replaces closure captures; reused across arena steps) ---

  /// Row indices (Gather / GatherAdd first table).
  std::vector<uint32_t> idx;
  /// Second row-index list (GatherAdd second table).
  std::vector<uint32_t> idx2;
  /// Auxiliary matrix (dropout mask, cached sigmoid, MSE residual, ...).
  la::Matrix aux;
  /// Scalar op parameter (Scale factor, LeakyRelu slope, L2 factor).
  float alpha = 0.0f;
  /// Borrowed sparse operand (Spmm backward); owned by the model.
  const la::CsrMatrix* csr = nullptr;
  /// Borrowed row subsets (SpmmRows backward): the output's rows and,
  /// for a compact input, the input's rows; owned by the model.
  const la::RowSubset* rows = nullptr;
  const la::RowSubset* input_rows = nullptr;

  /// True while `grad` holds this step's accumulated gradient. The flag —
  /// not the grad's shape — is the source of truth: recycled nodes can
  /// hold a stale same-shape grad buffer, which a shape check would
  /// silently accept.
  bool grad_live() const { return grad_live_; }

  /// Ensures `grad` is a live, zeroed accumulator shaped like `value`.
  /// First call per step allocates/zeroes; later calls are no-ops that
  /// debug-assert the shape still matches.
  void EnsureGrad() {
    if (grad_live_) {
      PUP_DCHECK(grad.SameShape(value));
      return;
    }
    grad.ResizeNoZero(value.rows(), value.cols());
    grad.Zero();
    grad_live_ = true;
  }

  /// Zeroes the gradient if allocated and ends its live range.
  void ZeroGrad() {
    if (grad.SameShape(value)) grad.Zero();
    grad_live_ = false;
  }

  /// Frees the gradient buffer and ends its live range; the next
  /// EnsureGrad allocates a fresh one.
  void ReleaseGrad() {
    grad = la::Matrix();
    grad_live_ = false;
  }

  /// Clears graph topology and op state so an arena can hand this node
  /// out again. Buffers (value/grad/aux/idx) keep their capacity — the
  /// whole point of recycling.
  void ResetForReuse() {
    parents.clear();
    backward_fn = nullptr;
    op_name = "leaf";
    requires_grad = false;
    grad_live_ = false;
    alpha = 0.0f;
    csr = nullptr;
    rows = nullptr;
    input_rows = nullptr;
  }

  /// Visited mark for the allocation-free tape walk (tensor.cc). Internal;
  /// meaningful only relative to the walk's current epoch.
  uint64_t topo_mark = 0;

 private:
  bool grad_live_ = false;
};

/// Creates a trainable leaf (requires_grad = true). Always heap-allocated:
/// parameters outlive any tape.
Tensor Param(la::Matrix value);

/// Creates a non-trainable leaf.
Tensor Constant(la::Matrix value);

/// Runs reverse-mode accumulation from `root`, which must be a scalar
/// (1x1). Every reachable node with requires_grad receives its gradient.
/// Leaf gradients accumulate across calls until ZeroGradients.
void Backward(const Tensor& root);

/// Zeroes gradients of every node reachable from `root`.
void ZeroGradients(const Tensor& root);

/// Number of Node objects heap-allocated so far (make_shared path, i.e.
/// outside any arena). Monotonic; snapshot and diff to count tape churn.
uint64_t HeapNodesAllocated();

namespace internal {

/// Nodes reachable from `root` in topological order (parents first).
std::vector<Node*> TopologicalOrder(const Tensor& root);

/// Allocation-free variant: fills `order` (cleared first), reusing its
/// capacity. Uses per-node visit marks, so concurrent walks over a shared
/// graph are not allowed (no training code does that).
void TopologicalOrderInto(Node* root, std::vector<Node*>* order);

/// Heap-allocates one Node and counts it (used by Param/Constant and by
/// ops when no arena is active).
Tensor NewHeapNode();

}  // namespace internal
}  // namespace pup::ag
