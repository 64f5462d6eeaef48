// Training phase: synthetic yelp data -> quantize -> k-core -> temporal
// split (timed as setup), then PUP (PupConfig::Full(), dim 64, uniform
// negatives) trained for a fixed number of epochs and evaluated by full
// ranking over every test user at cutoffs {50, 100}.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pup_model.h"
#include "data/kcore.h"
#include "data/quantization.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/topk.h"
#include "graph/hetero_graph.h"
#include "la/kernels.h"
#include "obs/registry.h"
#include "phases.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace pup;

constexpr size_t kPriceLevels = 4;
constexpr size_t kCore = 5;
const std::vector<int> kCutoffs = {50, 100};
constexpr int kRecallCutoff = 50;

double Seconds(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

struct Prepared {
  data::Dataset catalog;  ///< Quantized, before k-core.
  data::Dataset dataset;  ///< After k-core.
  std::vector<data::Interaction> train;
  std::vector<std::vector<uint32_t>> exclude;  ///< Train + valid, sorted.
  std::vector<std::vector<uint32_t>> test_items;
};

// One data preparation; every step is a span when `spans` is non-null.
Prepared Prepare(const TrainSpec& spec, uint64_t data_seed,
                 SpanBuffer* spans, Report* report) {
  Prepared p;
  ScopedSpan root(spans, "data.prepare");
  data::SyntheticConfig cfg =
      data::SyntheticConfig::YelpLike().Scaled(spec.scale);
  cfg.seed = data_seed;
  {
    ScopedSpan s(spans, "data.generate", root.id());
    p.catalog = data::GenerateSynthetic(cfg);
  }
  {
    ScopedSpan s(spans, "data.quantize", root.id());
    const Status st = data::QuantizeDataset(&p.catalog, kPriceLevels,
                                            data::QuantizationScheme::kUniform);
    if (!st.ok()) report->Fail("QuantizeDataset: " + st.ToString());
  }
  {
    ScopedSpan s(spans, "data.kcore", root.id());
    p.dataset = data::KCoreFilter(p.catalog, kCore);
  }
  {
    ScopedSpan s(spans, "data.split", root.id());
    data::DataSplit split = data::TemporalSplit(p.dataset);
    p.train = std::move(split.train);
    const size_t n = p.dataset.num_users;
    p.exclude = data::BuildUserItems(n, p.train);
    const auto valid = data::BuildUserItems(n, split.valid);
    for (size_t u = 0; u < n; ++u) {
      p.exclude[u].insert(p.exclude[u].end(), valid[u].begin(),
                          valid[u].end());
      std::sort(p.exclude[u].begin(), p.exclude[u].end());
    }
    p.test_items = data::BuildUserItems(n, split.test);
  }
  return p;
}

core::PupConfig MakeConfig(const TrainSpec& spec) {
  core::PupConfig cfg = core::PupConfig::Full();
  cfg.embedding_dim = 64;
  cfg.train.epochs = spec.epochs;
  cfg.train.neg_sampling = data::NegSampling::kUniform;
  return cfg;
}

// Samples the train/batch_step timer while a Fit runs. A thread reads its
// Sum() and Count() every kStepPollMs; an interval in which steps ended
// contributes its mean step time once per step. A step lasts several
// milliseconds, so an interval almost always holds at most one; a torn
// read (Count() is bumped just before Sum()) moves one sample of hundreds.
class StepSampler {
 public:
  explicit StepSampler(obs::Histogram* timer)
      : timer_(timer), thread_([this] { Loop(); }) {}
  ~StepSampler() { Stop(); }

  /// Stops sampling; returns the sampled step times in seconds.
  const std::vector<double>& Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
    return steps_s_;
  }

 private:
  static constexpr int kStepPollMs = 2;

  void Loop() {
    uint64_t sum0 = timer_->Sum(), n0 = timer_->Count();
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kStepPollMs));
      const uint64_t sum = timer_->Sum(), n = timer_->Count();
      if (n == n0) continue;
      const double mean =
          static_cast<double>(sum - sum0) / 1e9 / static_cast<double>(n - n0);
      steps_s_.insert(steps_s_.end(), n - n0, mean);
      sum0 = sum;
      n0 = n;
    }
  }

  obs::Histogram* timer_;
  std::atomic<bool> stop_{false};
  std::vector<double> steps_s_;
  std::thread thread_;  // Last: starts once the members above exist.
};

// One Fit + EvaluateRanking on a fresh model.
struct FitResult {
  double fit_s = 0.0;     ///< Wall time of Pup::Fit.
  double steady_s = 0.0;  ///< fit_s with every step at fast_step_s.
  double fast_step_s = 0.0;  ///< FastTime of the sampled steps.
  uint64_t steps = 0;
  double eval_s = 0.0;
  double recall = 0.0;
  size_t users_evaluated = 0;
  uint64_t triples_counted = 0;  ///< train/triples counter delta.
  std::unique_ptr<core::Pup> model;
};

// Evaluates `model` by full ranking over every test user.
FitResult Evaluate(const core::Pup& model, const Prepared& p,
                   SpanBuffer* spans) {
  FitResult r;
  ScopedSpan s(spans, "eval.evaluate_ranking");
  const uint64_t t0 = NowNs();
  const eval::EvalResult er =
      eval::EvaluateRanking(model, p.dataset.num_users, p.dataset.num_items,
                            p.exclude, p.test_items, kCutoffs);
  r.eval_s = Seconds(t0, NowNs());
  r.recall = er.At(kRecallCutoff).recall;
  r.users_evaluated = er.num_users_evaluated;
  return r;
}

// Fits a fresh model and evaluates it. Besides the wall time, the Fit is
// timed as its wall time with each batch step replaced by the fast-side
// quartile of the sampled steps (FastTime): the steps are nearly all of a
// Fit and do equal work, so this keeps the figure's meaning while host
// contention during some of the steps no longer moves it.
FitResult FitAndEval(const TrainSpec& spec, const Prepared& p,
                     SpanBuffer* spans) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* triples = reg.GetCounter("train/triples");
  obs::Histogram* step = reg.GetTimer("train/batch_step");
  auto model = std::make_unique<core::Pup>(MakeConfig(spec));
  const uint64_t triples0 = triples->Get();
  const uint64_t step_sum0 = step->Sum(), step_n0 = step->Count();
  double fit_s = 0.0;
  std::vector<double> sampled;
  {
    ScopedSpan s(spans, "core.fit");
    StepSampler sampler(step);
    const uint64_t t0 = NowNs();
    model->Fit(p.dataset, p.train);
    fit_s = Seconds(t0, NowNs());
    sampled = sampler.Stop();
  }
  FitResult r = Evaluate(*model, p, spans);
  r.fit_s = fit_s;
  r.steady_s = fit_s;
  r.steps = step->Count() - step_n0;
  if (!sampled.empty() && r.steps > 0) {
    r.fast_step_s = FastTime(std::move(sampled));
    const double step_s = static_cast<double>(step->Sum() - step_sum0) / 1e9;
    r.steady_s =
        fit_s - step_s + static_cast<double>(r.steps) * r.fast_step_s;
  }
  r.triples_counted = triples->Get() - triples0;
  r.model = std::move(model);
  return r;
}

// Checks one evaluation; `reference` is the recall of an earlier
// evaluation of a model trained identically, which must repeat bitwise.
void CheckEval(const FitResult& r, const Prepared& p, const double* reference,
               Report* report) {
  report->Attempt();
  if (!std::isfinite(r.recall) || r.recall < 0.0 || r.recall > 1.0) {
    report->Fail("recall@50 outside [0, 1]: " + std::to_string(r.recall));
  }
  if (reference != nullptr &&
      std::memcmp(&r.recall, reference, sizeof(double)) != 0) {
    report->Fail("recall@50 differs between identical models");
  }
  size_t with_test = 0;
  for (const auto& t : p.test_items) with_test += t.empty() ? 0 : 1;
  if (r.users_evaluated != with_test || with_test == 0) {
    report->Fail("eval covered " + std::to_string(r.users_evaluated) +
                 " users, expected " + std::to_string(with_test));
  }
}

// Checks one Fit and its evaluation.
void CheckFit(const FitResult& r, const Prepared& p, const TrainSpec& spec,
              const double* reference, Report* report) {
  report->Attempt();
  const uint64_t expect =
      static_cast<uint64_t>(spec.epochs) * p.train.size();
  if (obs::Enabled() && r.triples_counted != expect) {
    report->Fail("Fit trained " + std::to_string(r.triples_counted) +
                 " triples, expected " + std::to_string(expect));
  }
  CheckEval(r, p, reference, report);
}

// ---- Traced replays of single layer calls --------------------------------

// Median wall ms of `reps` calls of `fn`, each recorded as a span.
template <typename Fn>
double TimedReplay(SpanBuffer* spans, const char* name, uint64_t parent,
                   int reps, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    fn();
    const uint64_t t1 = NowNs();
    spans->Record(name, parent, 0, t0, t1);
    ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return Median(ms);
}

void ReplayLayers(const Prepared& p, const core::PupConfig& cfg, SpanBuffer* spans,
                  Report* report) {
  ScopedSpan root(spans, "replay.layers");

  // data: one epoch of negative sampling, as the trainer draws it.
  std::vector<data::BprTriple> triples;
  const double sample_ms =
      TimedReplay(spans, "data.sample_epoch", root.id(), 3, [&] {
        data::NegativeSampler sampler(p.dataset.num_users,
                                      p.dataset.num_items, p.train,
                                      cfg.train.seed);
        sampler.SampleEpoch(cfg.train.negative_rate, &triples);
      });
  report->Set("data.sample_epoch_ms", sample_ms, "ms");
  report->Set("data.triples", static_cast<double>(triples.size()), "count");

  // graph: the HeteroGraph Pup::Fit builds with the Full options.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(p.train.size());
  for (const data::Interaction& x : p.train) pairs.emplace_back(x.user, x.item);
  graph::HeteroGraphOptions gopts;
  gopts.use_category_nodes = cfg.use_category;
  gopts.use_price_nodes = cfg.use_price;
  gopts.add_self_loops = cfg.self_loops;
  gopts.max_neighbors = cfg.max_neighbors;
  gopts.neighbor_seed = cfg.train.seed;
  std::unique_ptr<graph::HeteroGraph> g;
  const double build_ms =
      TimedReplay(spans, "graph.build", root.id(), 3, [&] {
        g = std::make_unique<graph::HeteroGraph>(
            p.dataset.num_users, p.dataset.num_items,
            p.dataset.num_categories, p.dataset.num_price_levels, pairs,
            p.dataset.item_category, p.dataset.item_price_level, gopts);
      });
  report->Set("graph.build_ms", build_ms, "ms");
  report->Set("graph.nodes", static_cast<double>(g->num_nodes()), "count");
  report->Set("graph.nnz", static_cast<double>(g->adjacency().nnz()),
              "count");

  // la: one propagation of both branches (widths 56 and 8) over the real
  // adjacency. Bytes are computed from nnz and shapes: the CSR arrays,
  // the gathered dense rows and the written output.
  const la::CsrMatrix& adj = g->adjacency();
  const size_t widths[2] = {cfg.embedding_dim - cfg.category_branch_dim,
                            cfg.category_branch_dim};
  Rng rng(SubSeed(cfg.train.seed, 99));
  la::Matrix dense[2] = {
      la::Matrix::Gaussian(g->num_nodes(), widths[0], 0.05f, &rng),
      la::Matrix::Gaussian(g->num_nodes(), widths[1], 0.05f, &rng)};
  la::Matrix out[2];
  const double spmm_ms = TimedReplay(spans, "la.spmm", root.id(), 5, [&] {
    la::Spmm(adj, dense[0], &out[0]);
    la::Spmm(adj, dense[1], &out[1]);
  });
  double spmm_bytes = 0.0;
  for (size_t w : widths) {
    spmm_bytes += static_cast<double>(adj.nnz()) * (4.0 + 4.0 + 4.0 * w) +
                  static_cast<double>(adj.rows() + 1) * 4.0 +
                  static_cast<double>(adj.rows()) * 4.0 * w;
  }
  report->Set("la.spmm_ms", spmm_ms, "ms");
  report->Set("la.spmm_bytes", spmm_bytes, "bytes");
}

// Replays the eval loop's two layer calls — Scorer::ScoreItems and
// TopKSelector::Select at each cutoff — over every test user, in the
// same 16-user chunks EvaluateRanking uses, and sums their busy time.
void ReplayEval(const eval::Scorer& scorer, const Prepared& p,
                SpanBuffer* spans, Report* report) {
  constexpr size_t kChunk = 16;
  const size_t n = p.dataset.num_users;
  const size_t chunks = (n + kChunk - 1) / kChunk;
  struct Chunk {
    uint64_t score_ns = 0, select_ns = 0, start_ns = 0, end_ns = 0;
    size_t users = 0;
  };
  std::vector<Chunk> acc(chunks);
  ScopedSpan root(spans, "replay.eval");
  ParallelFor(0, n, kChunk, [&](size_t lo, size_t hi) {
    Chunk& c = acc[lo / kChunk];
    c.start_ns = NowNs();
    std::vector<float> scores;
    std::vector<uint32_t> top;
    eval::TopKSelector selector;
    for (size_t u = lo; u < hi; ++u) {
      if (p.test_items[u].empty()) continue;
      ++c.users;
      const uint64_t t0 = NowNs();
      scorer.ScoreItems(static_cast<uint32_t>(u), &scores);
      const uint64_t t1 = NowNs();
      for (uint32_t item : p.exclude[u]) {
        scores[item] = -std::numeric_limits<float>::infinity();
      }
      const uint64_t t2 = NowNs();
      for (int k : kCutoffs) {
        selector.Select(scores.data(), scores.size(), static_cast<size_t>(k),
                        &top);
      }
      const uint64_t t3 = NowNs();
      c.score_ns += t1 - t0;
      c.select_ns += t3 - t2;
    }
    c.end_ns = NowNs();
  });
  uint64_t score_ns = 0, select_ns = 0;
  size_t users = 0;
  for (const Chunk& c : acc) {
    score_ns += c.score_ns;
    select_ns += c.select_ns;
    users += c.users;
    if (c.users > 0) {
      spans->Record("eval.replay_chunk", root.id(), 0, c.start_ns, c.end_ns);
    }
  }
  report->Set("eval.score_ms", static_cast<double>(score_ns) / 1e6, "ms");
  report->Set("eval.select_ms", static_cast<double>(select_ns) / 1e6, "ms");
  report->Set("eval.users", static_cast<double>(users), "count");
}

}  // namespace

struct TrainPhase::State {
  TrainSpec spec;
  RunContext ctx;
  double budget_s = 0.0;
  uint64_t data_seed = 0;
  Prepared p;
  std::vector<double> setup_s, fit_s, eval_s, tput;
  double measured_s = 0.0;  ///< Training time of the rounds so far.
  double round_s = 0.0;     ///< Training time of the last Fit round.
  double first_recall = 0.0;
  std::unique_ptr<core::Pup> model;  ///< The newest fitted model.
};

TrainPhase::TrainPhase(const TrainSpec& spec, const RunContext& ctx,
                       double budget_s)
    : st_(std::make_unique<State>()) {
  State& s = *st_;
  s.spec = spec;
  s.ctx = ctx;
  s.budget_s = budget_s;
  s.data_seed = SubSeed(ctx.seed, 1);
  Report* report = ctx.report;
  // Setup; the rounds time it again (see Round).
  const uint64_t t0 = NowNs();
  s.p = Prepare(spec, s.data_seed, nullptr, report);
  s.setup_s.push_back(Seconds(t0, NowNs()));
  report->Attempt();
  report->Info("train.users", std::to_string(s.p.dataset.num_users));
  report->Info("train.items", std::to_string(s.p.dataset.num_items));
  report->Info("train.interactions",
               std::to_string(s.p.dataset.interactions.size()));
  report->Info("train.triples_per_epoch", std::to_string(s.p.train.size()));
  report->Info("train.epochs", std::to_string(spec.epochs));
}

TrainPhase::~TrainPhase() = default;

const data::Dataset& TrainPhase::catalog() const { return st_->p.catalog; }

void TrainPhase::Round() {
  State& s = *st_;
  Report* report = s.ctx.report;
  // The remaining timed data preparations, spread over the rounds. Each
  // regenerates the identical dataset and discards it.
  const int per_round = (s.spec.setup_reps - 1 + kRounds - 1) / kRounds;
  for (int i = 0; i < per_round; ++i) {
    if (static_cast<int>(s.setup_s.size()) >= s.spec.setup_reps) break;
    const uint64_t t0 = NowNs();
    Prepare(s.spec, s.data_seed, nullptr, report);
    s.setup_s.push_back(Seconds(t0, NowNs()));
    report->Attempt();
  }

  const uint64_t t0 = NowNs();
  int evals = s.spec.evals_per_round;
  const double* reference = s.model ? &s.first_recall : nullptr;
  if (!s.model || s.measured_s + s.round_s <= s.budget_s) {
    FitResult r = FitAndEval(s.spec, s.p, nullptr);
    CheckFit(r, s.p, s.spec, reference, report);
    if (!s.model) s.first_recall = r.recall;
    reference = &s.first_recall;
    s.fit_s.push_back(r.fit_s);
    s.eval_s.push_back(r.eval_s);
    s.tput.push_back(static_cast<double>(s.spec.epochs) *
                     static_cast<double>(s.p.train.size()) / r.steady_s);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "wall %.3f s, %llu steps, fast step %.3f ms, steady "
                  "%.3f s, eval %.3f s",
                  r.fit_s, static_cast<unsigned long long>(r.steps),
                  r.fast_step_s * 1e3, r.steady_s, r.eval_s);
    report->Info("train.fit", line);
    s.model = std::move(r.model);
    --evals;
  }
  for (int e = 0; e < evals; ++e) {
    const FitResult again = Evaluate(*s.model, s.p, nullptr);
    CheckEval(again, s.p, reference, report);
    s.eval_s.push_back(again.eval_s);
  }
  const double round_s = Seconds(t0, NowNs());
  if (evals < s.spec.evals_per_round) s.round_s = round_s;
  s.measured_s += round_s;
}

double TrainPhase::Finish() {
  State& s = *st_;
  const TrainSpec& spec = s.spec;
  const Prepared& p = s.p;
  Report* report = s.ctx.report;
  report->Info("train.fits", std::to_string(s.fit_s.size()));
  std::string evals;
  for (double e : s.eval_s) {
    if (!evals.empty()) evals += ' ';
    evals += std::to_string(e);
  }
  report->Info("train.evals_s", evals);
  report->Set("train_triples_per_s", FastRate(s.tput), "1/s");
  report->Set("eval_s", FastTime(s.eval_s), "s");
  report->Set("recall_at_50", s.first_recall, "ratio");

  if (s.ctx.trace) {
    SpanBuffer* spans = s.ctx.spans->NewBuffer(1 << 16);
    {
      const uint64_t t0 = NowNs();
      Prepare(spec, s.data_seed, spans, report);
      report->Set("data.prepare_ms", static_cast<double>(NowNs() - t0) / 1e6,
                  "ms");
    }
    obs::Registry& reg = obs::Registry::Global();
    obs::Histogram* step = reg.GetTimer("train/batch_step");
    obs::Counter* batches = reg.GetCounter("train/batches");
    obs::Histogram* wait = reg.GetTimer("threadpool/task_wait");
    obs::Counter* tasks = reg.GetCounter("threadpool/tasks");
    const uint64_t step_sum0 = step->Sum(), step_n0 = step->Count();
    const uint64_t batches0 = batches->Get();
    const uint64_t wait0 = wait->Sum(), tasks0 = tasks->Get();
    const FitResult r = FitAndEval(spec, p, spans);
    CheckFit(r, p, spec, &s.first_recall, report);
    const uint64_t step_n = step->Count() - step_n0;
    report->Set("train.batch_step_ms",
                step_n == 0 ? 0.0
                            : static_cast<double>(step->Sum() - step_sum0) /
                                  1e6 / static_cast<double>(step_n),
                "ms");
    report->Set("train.batches",
                static_cast<double>(batches->Get() - batches0), "count");
    report->Set("common.pool_task_wait_ms",
                static_cast<double>(wait->Sum() - wait0) / 1e6, "ms");
    report->Set("common.pool_tasks",
                static_cast<double>(tasks->Get() - tasks0), "count");
    report->Set("trace.train_overhead",
                (r.fit_s + r.eval_s) /
                    (FastTime(s.fit_s) + FastTime(s.eval_s)),
                "ratio");

    ReplayLayers(p, MakeConfig(spec), spans, report);
    ReplayEval(*r.model, p, spans, report);
  }

  return FastTime(s.setup_s);
}

}  // namespace perfbench
