// perfbench — end-to-end benchmark for PUP training and serving.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Runs the named workload on inputs generated from --seed, checks its
// outputs, and prints one JSON object as the last stdout line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also repeats its work with spans and layer replays, prints the
// per-layer metrics, and writes its spans to DIR/spans-NAME-sN.jsonl.
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "phases.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Peak resident set size of the process, in MiB.
double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// A workload is a pipeline: the training phase, and the serving phase
// over the training phase's id space, run in alternating rounds.
struct Workload {
  const char* name;
  TrainSpec train_spec;
  ServeSpec serve_spec;
};

// Share of --seconds given to training; serving gets the rest.
constexpr double kTrainShare = 0.4;

TrainSpec TrainYelp8() {
  TrainSpec s;
  s.scale = 8.0;
  s.epochs = 1;
  s.setup_reps = 3;
  s.evals_per_round = 1;
  return s;
}

TrainSpec TrainYelp05() {
  TrainSpec s;
  s.scale = 0.5;
  s.epochs = 20;
  s.setup_reps = 15;
  s.evals_per_round = 4;
  return s;
}

// Uniform full rankings over the 12k-item yelp-8 catalog, cache off:
// scoring the catalog dominates.
ServeSpec ServeScanYelp8() {
  ServeSpec s;
  s.zipf = false;
  s.cache_capacity = 0;
  s.open_rate_qps = 2000.0;
  // 20 rates, 2000/s to 10000/s in steps of about 9%.
  s.ladder_qps = {2000, 2200, 2400, 2600, 2800, 3100, 3300,
                  3600, 3900, 4300, 4700, 5100, 5500, 6000,
                  6500, 7100, 7800, 8400, 9200, 10000};
  s.p99_limit_us = 5000.0;
  s.setup_reps_per_round = 4;
  return s;
}

// Zipf(1.1) trace (10% re-rank, 5% cold start) over the 750-item
// yelp-0.5 catalog with the result cache on: the rendezvous, exec_mu_
// and the cache dominate.
ServeSpec ServeZipfYelp05() {
  ServeSpec s;
  s.zipf = true;
  s.cache_capacity = 4096;
  s.open_rate_qps = 20000.0;
  // 20 rates, 40000/s to 200000/s in steps of about 9%.
  s.ladder_qps = {40000,  44000,  47000,  52000,  56000,  61000,  66000,
                  72000,  79000,  86000,  93000,  102000, 111000, 120000,
                  131000, 143000, 155000, 169000, 184000, 200000};
  s.p99_limit_us = 2000.0;
  s.setup_reps_per_round = 10;
  return s;
}

std::vector<Workload> Workloads() {
  return {
      {"yelp8", TrainYelp8(), ServeScanYelp8()},
      {"yelp05", TrainYelp05(), ServeZipfYelp05()},
  };
}

// The metric names BENCHMARK.json declares, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "serve_setup_ms", "peak_rss_mb", "train_triples_per_s",
    "eval_s",  "recall_at_50",   "p50_us"};
const std::vector<std::string> kPerLayer = {
    "data.prepare_ms",       "data.sample_epoch_ms", "data.triples",
    "graph.build_ms",        "graph.nodes",          "graph.nnz",
    "la.spmm_ms",            "la.spmm_bytes",        "train.batch_step_ms",
    "train.batches",         "common.pool_task_wait_ms",
    "common.pool_tasks",     "eval.score_ms",        "eval.select_ms",
    "eval.users",            "ckpt.index_load_ms",   "ckpt.index_bytes",
    "serve.qps",             "serve.p99_us",         "serve.open_p99_us",
    "serve.slo_rate_qps",
    "serve.rank_us",         "serve.self_us",        "serve.cache_hit_ratio",
    "serve.batches",         "serve.batch_occupancy", "la.score_us",
    "la.score_bytes",        "eval.select_us",       "load.gen_lag_us",
    "trace.train_overhead",  "trace.serve_overhead"};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\nworkloads:",
               msg);
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, work_dir = ".";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoll(val, &end, 10);
      if (*end != '\0' || seed < 0) return Usage("bad --seed");
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0.0)) return Usage("bad --seconds");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return Usage("bad --trace");
      }
      trace = val[0] - '0';
    } else if (key == "--work-dir") {
      work_dir = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (workload.empty() || seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const std::vector<Workload> all = Workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return workload == w.name;
  });
  if (it == all.end()) return Usage(("unknown workload " + workload).c_str());
  const Workload& w = *it;

  Report report;
  SpanLog spans;
  RunContext ctx;
  ctx.seed = static_cast<uint64_t>(seed);
  ctx.trace = trace == 1;
  ctx.work_dir = work_dir;
  ctx.spans = ctx.trace ? &spans : nullptr;
  ctx.report = &report;
  // Four kernel-pool threads and four serving clients, capped at the
  // host's hardware concurrency.
  ctx.threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  pup::ThreadPool::SetGlobalThreads(ctx.threads);

  report.Info("workload", w.name);
  report.Info("seed", std::to_string(ctx.seed));
  report.Info("seconds", std::to_string(seconds));
  report.Info("trace", std::to_string(trace));
  report.Info("pool_threads",
              std::to_string(pup::ThreadPool::GlobalThreads()));
  report.Info("serve_clients", std::to_string(ctx.threads));
  report.Info("simd", pup::simd::IsaName(pup::simd::ActiveIsa()));

  double setup_s = 0.0;
  {
    TrainPhase train(w.train_spec, ctx, seconds * kTrainShare);
    ServePhase serve(w.serve_spec, ctx, seconds * (1.0 - kTrainShare),
                     train.catalog());
    for (int r = 0; r < kRounds; ++r) {
      train.Round();
      serve.Round();
    }
    setup_s = train.Finish() + serve.Finish();
  }
  report.Set("setup_s", setup_s, "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");

  const std::vector<std::string>& names = ctx.trace ? kPerLayer : kEndToEnd;
  if (ctx.trace) {
    const std::string path = work_dir + "/spans-" + w.name + "-s" +
                             std::to_string(ctx.seed) + ".jsonl";
    if (!spans.WriteJsonl(path)) report.Fail("cannot write " + path);
    report.Info("spans", path + " (" + std::to_string(spans.recorded()) +
                             " recorded, " + std::to_string(spans.dropped()) +
                             " dropped)");
  }
  std::printf("%s\n", report.ResultLine(names).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
