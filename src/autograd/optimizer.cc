#include "autograd/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"

namespace pup::ag {
namespace {

// Scalar operations per ParallelFor chunk of an update (the la kernels'
// grain) and, roughly, per element of an Adam / SGD update.
constexpr size_t kMinWorkPerChunk = size_t{1} << 14;
constexpr size_t kAdamOpsPerElement = 12;
constexpr size_t kSgdOpsPerElement = 4;

size_t RowGrain(size_t cols, size_t ops_per_element) {
  return std::max<size_t>(
      1, kMinWorkPerChunk / std::max<size_t>(1, cols * ops_per_element));
}

}  // namespace

Optimizer::Optimizer(std::vector<Tensor> params)
    : params_(std::move(params)) {
  for (const Tensor& p : params_) {
    PUP_CHECK_MSG(p && p->requires_grad,
                  "optimizer parameters must be trainable leaves");
  }
}

void Optimizer::ZeroGrad() {
  for (const Tensor& p : params_) p->ZeroGrad();
}

OptimizerState Optimizer::ExportState() const {
  OptimizerState state;
  state.learning_rate = learning_rate_;
  return state;
}

Status Optimizer::ValidateState(const OptimizerState& state) const {
  if (!state.slots.empty()) {
    return Status::InvalidArgument(
        "optimizer state has " + std::to_string(state.slots.size()) +
        " slots but this optimizer keeps none");
  }
  return Status::OK();
}

Status Optimizer::ImportState(const OptimizerState& state) {
  PUP_RETURN_NOT_OK(ValidateState(state));
  learning_rate_ = state.learning_rate;
  return Status::OK();
}

Sgd::Sgd(std::vector<Tensor> params, float lr, float weight_decay)
    : Optimizer(std::move(params)), weight_decay_(weight_decay) {
  learning_rate_ = lr;
}

// PUP_HOT
void Sgd::Step() {
  // Row-parallel: every element updates independently, so the result is
  // bitwise the same at any thread count.
  const float wd = weight_decay_, lr = learning_rate_;
  for (const Tensor& p : params_) {
    if (!p->grad_live()) continue;  // Never touched this step.
    const size_t cols = p->value.cols();
    ParallelFor(0, p->value.rows(), RowGrain(cols, kSgdOpsPerElement),
                [&, wd, lr](size_t lo, size_t hi) {
                  for (size_t r = lo; r < hi; ++r) {
                    float* value = p->value.Row(r);
                    const float* grad = p->grad.Row(r);
                    for (size_t c = 0; c < cols; ++c) {
                      float g = grad[c] + wd * value[c];
                      value[c] -= lr * g;
                    }
                  }
                });
  }
}

Adam::Adam(std::vector<Tensor> params, Options options)
    : Optimizer(std::move(params)), options_(options) {
  learning_rate_ = options_.learning_rate;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

OptimizerState Adam::ExportState() const {
  OptimizerState state;
  state.step = t_;
  state.learning_rate = learning_rate_;
  state.slots.reserve(2 * params_.size());
  for (const la::Matrix& m : m_) state.slots.push_back(m);
  for (const la::Matrix& v : v_) state.slots.push_back(v);
  return state;
}

Status Adam::ValidateState(const OptimizerState& state) const {
  const size_t k = params_.size();
  if (state.slots.size() != 2 * k) {
    return Status::InvalidArgument(
        "Adam state has " + std::to_string(state.slots.size()) +
        " slots, expected " + std::to_string(2 * k));
  }
  for (size_t i = 0; i < k; ++i) {
    if (!state.slots[i].SameShape(m_[i]) ||
        !state.slots[k + i].SameShape(v_[i])) {
      return Status::InvalidArgument(
          "Adam moment shape mismatch at parameter " + std::to_string(i));
    }
  }
  return Status::OK();
}

Status Adam::ImportState(const OptimizerState& state) {
  PUP_RETURN_NOT_OK(ValidateState(state));
  const size_t k = params_.size();
  t_ = state.step;
  learning_rate_ = state.learning_rate;
  for (size_t i = 0; i < k; ++i) {
    m_[i] = state.slots[i];
    v_[i] = state.slots[k + i];
  }
  return Status::OK();
}

// PUP_HOT
void Adam::Step() {
  ++t_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float bias1 =
      1.0f - std::pow(b1, static_cast<float>(t_));
  const float bias2 =
      1.0f - std::pow(b2, static_cast<float>(t_));
  const float wd = options_.weight_decay, lr = learning_rate_,
              eps = options_.epsilon;
  // Row-parallel: every element's update reads and writes only its own
  // value, gradient and moments, so the result is bitwise the same at any
  // thread count. The scalars are captured by value so the compiler can
  // vectorize the column loop (see CMakeLists.txt).
  for (size_t k = 0; k < params_.size(); ++k) {
    const Tensor& p = params_[k];
    if (!p->grad_live()) continue;  // Never touched this step.
    const size_t cols = p->value.cols();
    la::Matrix& mk = m_[k];
    la::Matrix& vk = v_[k];
    ParallelFor(
        0, p->value.rows(), RowGrain(cols, kAdamOpsPerElement),
        [&, b1, b2, bias1, bias2, wd, lr, eps](size_t lo, size_t hi) {
          for (size_t r = lo; r < hi; ++r) {
            float* value = p->value.Row(r);
            const float* grad = p->grad.Row(r);
            float* m = mk.Row(r);
            float* v = vk.Row(r);
            for (size_t c = 0; c < cols; ++c) {
              float g = grad[c] + wd * value[c];
              m[c] = b1 * m[c] + (1.0f - b1) * g;
              v[c] = b2 * v[c] + (1.0f - b2) * g * g;
              float m_hat = m[c] / bias1;
              float v_hat = v[c] / bias2;
              value[c] -= lr * m_hat / (std::sqrt(v_hat) + eps);
            }
          }
        });
  }
}

}  // namespace pup::ag
