// The two phases a workload runs: training (data prep, Pup::Fit, ranking
// eval) and serving (index load, closed loop, fixed-rate open loop, rate
// ladder). A run is split into kRounds rounds; each round runs a share of
// both phases, so the samples behind every metric are spread over the
// whole run and a host busy period of a few seconds spoils a minority of
// them instead of all of one metric. With tracing on, each phase then
// repeats its work with spans and layer replays and reports per-layer
// metrics plus the tracing overhead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

/// Rounds a run is split into.
constexpr int kRounds = 5;

/// What a run was asked to do, plus where it may write.
struct RunContext {
  uint64_t seed = 1;
  bool trace = false;
  std::string work_dir;      ///< Scratch files (the saved index).
  SpanLog* spans = nullptr;  ///< Non-null only when tracing.
  Report* report = nullptr;
  /// Kernel-pool threads, and closed-loop clients / open-loop dispatchers.
  int threads = 4;
};

/// Derives an independent stream seed from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

struct TrainSpec {
  double scale = 1.0;       ///< SyntheticConfig::YelpLike().Scaled(scale).
  int epochs = 1;           ///< Fixed epochs per Pup::Fit.
  /// Data preparations timed for setup_s: one before the rounds, the
  /// rest spread over them.
  int setup_reps = 3;
  int evals_per_round = 1;  ///< EvaluateRanking calls in each round.
};

struct ServeSpec {
  bool zipf = false;    ///< Zipf trace mix vs uniform full rankings.
  size_t cache_capacity = 0;
  double open_rate_qps = 1000.0;   ///< The fixed open-loop rate.
  std::vector<double> ladder_qps;  ///< Ascending fixed rates.
  double p99_limit_us = 1000.0;    ///< Latency limit for the ladder.
  /// Index loads + server starts timed in each round (one more before).
  int setup_reps_per_round = 2;
};

/// Training phase: prepares the data on construction (timed as setup),
/// trains and evaluates in rounds, and reports on Finish.
class TrainPhase {
 public:
  /// Prepares the data (timed). Fits run while their measured time stays
  /// within about `budget_s` (at least one).
  TrainPhase(const TrainSpec& spec, const RunContext& ctx, double budget_s);
  ~TrainPhase();

  /// The quantized dataset before k-core: the id space serving indexes.
  const pup::data::Dataset& catalog() const;

  /// One round: some of the remaining timed data preparations, a fresh
  /// Fit while the budget lasts (always in the first round), then
  /// `spec.evals_per_round` evaluations of the newest model.
  void Round();

  /// Reports the training metrics; returns the setup seconds (FastTime).
  double Finish();

 private:
  struct State;
  std::unique_ptr<State> st_;
};

/// Serving phase over a catalog's id space: saves the index and starts the
/// server on construction, measures in rounds, and reports on Finish.
class ServePhase {
 public:
  ServePhase(const ServeSpec& spec, const RunContext& ctx, double budget_s,
             const pup::data::Dataset& catalog);
  ~ServePhase();

  /// One round: timed setups, closed-loop windows, fixed-rate open-loop
  /// windows and one pass over the rate ladder; about budget_s / kRounds.
  void Round();

  /// Reports the serving metrics; returns the setup seconds (FastTime).
  double Finish();

 private:
  struct State;
  std::unique_ptr<State> st_;
};

}  // namespace perfbench
