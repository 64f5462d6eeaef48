// Shared harness for the per-table/per-figure benchmark binaries.
//
// Every bench binary follows the same pipeline as the paper's evaluation:
// generate the dataset analogue → quantize prices → 10-core filter →
// temporal 60/20/20 split → train on train, rank against test with train
// and validation items excluded.
//
// Environment knobs (all optional):
//   PUP_BENCH_SCALE   dataset scale factor (default 1.0)
//   PUP_BENCH_EPOCHS  training epochs (default 40)
//   PUP_BENCH_DIM     embedding size (default 64)
//   PUP_BENCH_THREADS global thread-pool size (default: hardware
//                     concurrency; 1 = exact serial). Bench mains that
//                     parse argv also accept --threads, which wins.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "models/recommender.h"
#include "train/trainer.h"

namespace pup::bench {

/// Benchmark-wide settings from the environment.
struct Env {
  double scale = 1.0;
  int epochs = 40;
  size_t embedding_dim = 64;
  /// 0 = hardware concurrency.
  int threads = 0;
};

/// Reads PUP_BENCH_* environment variables and sizes the global thread
/// pool from PUP_BENCH_THREADS. A value must be a whole number in range
/// (SCALE > 0, EPOCHS and DIM >= 1, THREADS >= 0); anything else exits
/// with status 2, naming the variable.
Env GetEnv();

/// Training options matching the paper's §V-A3 protocol at bench scale.
train::TrainOptions DefaultTrain(const Env& env);

/// A dataset prepared for evaluation.
struct PreparedData {
  data::Dataset dataset;
  std::vector<data::Interaction> train;
  std::vector<data::Interaction> valid;
  std::vector<data::Interaction> test;
  /// Items hidden from ranking per user (train ∪ valid).
  std::vector<std::vector<uint32_t>> exclude;
  /// Ground-truth test items per user.
  std::vector<std::vector<uint32_t>> test_items;
};

/// Runs the full preprocessing pipeline on a synthetic config.
PreparedData Prepare(const data::SyntheticConfig& config, size_t price_levels,
                     data::QuantizationScheme scheme, size_t kcore = 5);

/// Fit + evaluate one model; returns its metrics at the given cutoffs.
/// Records one case (see RecordMetrics) toward the process exit code.
struct RunResult {
  eval::EvalResult metrics;
  double fit_seconds = 0.0;
};
RunResult FitAndEvaluate(models::Recommender* model, const PreparedData& d,
                         const std::vector<int>& cutoffs = {50, 100});

/// Counts one benchmark case toward the run summary. FitAndEvaluate
/// records automatically; benches that fit/evaluate by hand or analyze
/// data without a model record their cases explicitly.
void RecordCase(const std::string& name, bool ok,
                const std::string& note = "");

/// Records `name` as passing iff every requested metric is finite and in
/// [0, 1] — the signature of a training or evaluation blow-up (NaN loss,
/// divergence) reaching the report.
void RecordMetrics(const std::string& name, const eval::EvalResult& result,
                   const std::vector<int>& cutoffs = {50, 100});

/// Prints the machine-readable one-line JSON run summary
/// (`{"cases":N,"failed":M,"failures":[…]}`) and returns the process exit
/// code: 0 iff at least one case was recorded and none failed. Every
/// table/figure bench main ends with `return bench::Finish();` so CI
/// fails when a benchmark silently degenerates.
int Finish();

/// "Recall@50  NDCG@50  Recall@100  NDCG@100" cells for a table row.
std::vector<std::string> MetricCells(const eval::EvalResult& result,
                                     const std::vector<int>& cutoffs = {50,
                                                                        100});

/// Prints the standard bench banner (dataset summary + env).
void PrintHeader(const std::string& title, const PreparedData& d,
                 const Env& env);

}  // namespace pup::bench
