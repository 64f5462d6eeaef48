// The common recommender interface every method implements.
//
// A Recommender is fit on a training interaction list and then scores all
// items for a user (the eval::Scorer contract), which the evaluation
// harness turns into top-K rankings.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "models/scoring.h"

namespace pup::models {

/// Base class for every method in the Table II comparison.
class Recommender : public eval::Scorer {
 public:
  ~Recommender() override = default;

  /// Method name as it appears in the paper's tables ("BPR-MF", "PUP", …).
  virtual std::string name() const = 0;

  /// Trains on `train` (a subset of dataset.interactions). The dataset
  /// provides id spaces and item attributes; implementations must not
  /// look at interactions outside `train`.
  virtual void Fit(const data::Dataset& dataset,
                   const std::vector<data::Interaction>& train) = 0;

  /// The model's folded dot-product inference state (user/item vectors +
  /// item bias), or nullptr when the method cannot be expressed as one
  /// (MLP scorers, popularity baselines) or has not been fit yet. The
  /// serving layer freezes this into an immutable ServingIndex
  /// (src/serve); the pointer remains owned by the model.
  virtual const DotScorer* ExportScorer() const { return nullptr; }

  /// Scores through ExportScorer()'s item panels when the model has one
  /// — its ScoreItems is that scorer's, bitwise (models_test pins this
  /// for every model) — and row by row through ScoreItems otherwise.
  void ScoreUsers(const uint32_t* users, size_t n,
                  std::vector<float>* out) const override {
    const DotScorer* dot = ExportScorer();
    if (dot == nullptr) {
      eval::Scorer::ScoreUsers(users, n, out);
      return;
    }
    out->resize(n * dot->num_items());
    dot->ScoreUsers(users, n, out->data());
  }
};

}  // namespace pup::models
