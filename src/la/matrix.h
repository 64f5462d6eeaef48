// Dense row-major float matrix — the storage type for embeddings,
// activations, and gradients throughout the library.
//
// Layout contract (see docs/simd.md): the buffer is 64-byte aligned and
// rows are padded to a 64-byte (16-float) leading dimension, so every row
// of a multi-column matrix starts on a cache-line/vector boundary and the
// SIMD kernels run full aligned lanes with no tail handling. Column
// vectors (cols <= 1) stay contiguous — their "rows" are single floats
// and padding them 16x would waste memory and scatter the values the
// reduction kernels want contiguous. The pad lanes hold unspecified
// bytes: kernels may read and overwrite them freely, but nothing ever
// *consumes* a pad value (serialization, reductions, comparisons, and
// the finite-checks all walk the logical extent only).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace pup::la {

/// Monotonic counters of float-buffer allocations made by Matrix.
/// Snapshot before and after a region and take deltas; used to verify the
/// zero-allocation steady state of the training step (see TapeArena).
struct AllocStats {
  uint64_t count = 0;  ///< Buffer allocations (fresh or capacity growth).
  uint64_t bytes = 0;  ///< Bytes those allocations requested.
};

/// Current process-wide Matrix allocation counters (relaxed atomics; safe
/// to read concurrently, values are monotonic).
AllocStats MatrixAllocStats();

namespace internal {
/// Records one Matrix buffer allocation of `num_floats` floats.
void RecordMatrixAlloc(size_t num_floats);

/// Minimal std allocator returning 64-byte-aligned buffers, so vector
/// loads/stores on row starts can use aligned forms.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, size_t) noexcept { ::operator delete(p, kAlign); }

  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};
}  // namespace internal

/// Dense rows x cols matrix of float, row-major with a padded leading
/// dimension, value-semantic.
///
/// A (n, 1) matrix doubles as a column vector; free kernels in kernels.h
/// operate on Matrix. Element access is bounds-checked in debug builds.
class Matrix {
 public:
  /// Floats per alignment unit (64 bytes): the row-padding quantum and
  /// the widest supported vector lane (AVX-512).
  static constexpr size_t kAlignFloats = 16;

  /// Leading dimension for a logical column count: column vectors stay
  /// contiguous, wider matrices pad each row to a 64-byte multiple.
  static constexpr size_t StrideFor(size_t cols) {
    return cols <= 1 ? cols : (cols + kAlignFloats - 1) / kAlignFloats *
                                  kAlignFloats;
  }

  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0), stride_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        stride_(StrideFor(cols)),
        data_(PaddedExtent(rows, stride_), 0.0f) {
    if (!data_.empty()) internal::RecordMatrixAlloc(data_.size());
  }

  /// Matrix filled with `fill` (pad lanes included; they are never read).
  Matrix(size_t rows, size_t cols, float fill)
      : rows_(rows),
        cols_(cols),
        stride_(StrideFor(cols)),
        data_(PaddedExtent(rows, stride_), fill) {
    if (!data_.empty()) internal::RecordMatrixAlloc(data_.size());
  }

  /// Builds from explicit row-major data; data.size() must equal
  /// rows*cols. The dense rows are repacked into the padded layout.
  Matrix(size_t rows, size_t cols, const std::vector<float>& data)
      : rows_(rows),
        cols_(cols),
        stride_(StrideFor(cols)),
        data_(PaddedExtent(rows, stride_), 0.0f) {
    PUP_CHECK_EQ(data.size(), rows_ * cols_);
    if (!data_.empty()) internal::RecordMatrixAlloc(data_.size());
    for (size_t r = 0; r < rows_; ++r) {
      for (size_t c = 0; c < cols_; ++c) {
        data_[r * stride_ + c] = data[r * cols_ + c];
      }
    }
  }

  Matrix(const Matrix& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        stride_(other.stride_),
        data_(other.data_) {
    if (!data_.empty()) internal::RecordMatrixAlloc(data_.size());
  }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      const bool grows = other.data_.size() > data_.capacity();
      rows_ = other.rows_;
      cols_ = other.cols_;
      stride_ = other.stride_;
      data_ = other.data_;
      if (grows) internal::RecordMatrixAlloc(data_.size());
    }
    return *this;
  }
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Matrix with i.i.d. N(0, stddev^2) entries.
  static Matrix Gaussian(size_t rows, size_t cols, float stddev, Rng* rng);

  /// Matrix with i.i.d. U(lo, hi) entries.
  static Matrix Uniform(size_t rows, size_t cols, float lo, float hi,
                        Rng* rng);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Logical element count (rows * cols), excluding pad lanes.
  size_t size() const { return rows_ * cols_; }
  /// Leading dimension in floats: Row(r+1) - Row(r).
  size_t stride() const { return stride_; }
  /// Backing-buffer extent in floats: rows*stride rounded up to a full
  /// 16-float lane. Elementwise kernels iterate this flat extent (pads
  /// included) so every load/store is a full aligned vector.
  size_t padded_size() const { return data_.size(); }
  /// True when the logical elements form one dense run of size() floats
  /// (column vectors, 16-multiple widths, or degenerate shapes).
  bool IsContiguous() const { return stride_ == cols_ || rows_ <= 1; }
  bool empty() const { return rows_ * cols_ == 0; }

  float& operator()(size_t r, size_t c) {
    PUP_DCHECK(r < rows_ && c < cols_);
    return data_[r * stride_ + c];
  }
  float operator()(size_t r, size_t c) const {
    PUP_DCHECK(r < rows_ && c < cols_);
    return data_[r * stride_ + c];
  }

  /// Value at logical flat (row-major) index i — element (i/cols, i%cols).
  /// For tests and diagnostics that think in flat indices; kernels use
  /// Row()/stride-aware pointers.
  float& FlatAt(size_t i) {
    PUP_DCHECK(cols_ > 0 && i < rows_ * cols_);
    return data_[(i / cols_) * stride_ + i % cols_];
  }
  float FlatAt(size_t i) const {
    PUP_DCHECK(cols_ > 0 && i < rows_ * cols_);
    return data_[(i / cols_) * stride_ + i % cols_];
  }

  /// Pointer to the start of row r (64-byte aligned when cols > 1).
  float* Row(size_t r) {
    PUP_DCHECK(r < rows_);
    return data_.data() + r * stride_;
  }
  const float* Row(size_t r) const {
    PUP_DCHECK(r < rows_);
    return data_.data() + r * stride_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every entry (pads included) to v.
  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Sets every entry to zero.
  void Zero() { Fill(0.0f); }

  /// Reshapes to rows x cols without clearing existing entries; only
  /// growth beyond the current element count is zero-filled (vector
  /// semantics). Capacity is retained, so repeatedly resizing to shapes
  /// within the high-water mark performs no allocation — the backbone of
  /// the per-step buffer reuse in the autograd arena (see
  /// docs/architecture.md "Memory model"). Callers must overwrite the
  /// retained prefix; every kernel in kernels.h does. Pad lanes are
  /// unspecified after a resize.
  void ResizeNoZero(size_t rows, size_t cols) {
    const size_t stride = StrideFor(cols);
    const size_t n = PaddedExtent(rows, stride);
    if (n > data_.capacity()) internal::RecordMatrixAlloc(n);
    rows_ = rows;
    cols_ = cols;
    stride_ = stride;
    // NOLINTNEXTLINE(pup-hot-transitive): capacity-retaining — a steady-state no-op; real growth is counted above.
    data_.resize(n);
  }

  /// Floats the buffer holds without reallocating: ResizeNoZero to any
  /// shape with ExtentFor(rows, cols) <= capacity() allocates nothing.
  size_t capacity() const { return data_.capacity(); }

  /// Buffer extent, in floats, of a rows x cols matrix.
  static constexpr size_t ExtentFor(size_t rows, size_t cols) {
    return PaddedExtent(rows, StrideFor(cols));
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Aborts (via PUP_CHECK machinery) if any entry is NaN or ±Inf,
  /// reporting `what`, the shape, the first bad flat index, and NaN/Inf
  /// counts. The clean path is a branch-free scan with no allocation; the
  /// trainer calls this on the loss every step (see ag::NumericGuard for
  /// the op-level tape scan).
  void AssertFinite(const char* what) const;

  /// Human-readable dump (small matrices; for tests and debugging).
  std::string ToString() const;

 private:
  /// Buffer extent: rows*stride rounded up to a whole 16-float lane so
  /// flat elementwise traversal never needs a tail.
  static constexpr size_t PaddedExtent(size_t rows, size_t stride) {
    const size_t n = rows * stride;
    return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  }

  size_t rows_;
  size_t cols_;
  size_t stride_;
  std::vector<float, internal::AlignedAllocator<float>> data_;
};

}  // namespace pup::la
