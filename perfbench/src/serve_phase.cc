// Serving phase: a frozen index over the yelp id space, built from seeded
// Gaussian embeddings, saved once and loaded back with
// ServingIndex::Load (timed as setup, again in every round), then driven
// through serve::Server::Rank in every round by
//   * a closed loop of `clients` threads (qps, p50/p99),
//   * an open loop at the workload's fixed rate with Poisson arrivals,
//     each request timed from its due time (open_p99_us), and
//   * a ladder of fixed rates, one pass per round; the highest rate whose
//     p99, timed from due time, meets the limit in at least two of its
//     five windows is serve.slo_rate_qps.
// Every reply is checked structurally; every 64th stream position is
// also compared bitwise with a reference ranking from serve::IndexScorer.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "eval/topk.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "models/scoring.h"
#include "obs/registry.h"
#include "phases.h"
#include "serve/index.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace pup;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();
constexpr uint32_t kTopK = 10;
constexpr size_t kMaxK = 100;
constexpr size_t kStreamLen = size_t{1} << 18;
constexpr size_t kSampleStride = 64;
constexpr size_t kMaxSamplesPerClient = 2048;
constexpr size_t kLatenciesPerClient = size_t{1} << 16;
constexpr size_t kSpansPerClient = size_t{1} << 16;
constexpr int kClosedPerRound = 4;
constexpr int kOpenPerRound = 4;
// Shares of the serving budget; the rest is the unmeasured warm-up.
constexpr double kClosedShare = 0.30;
constexpr double kOpenShare = 0.15;
constexpr double kLadderShare = 0.50;

struct Stream {
  std::vector<serve::TraceEvent> events;
  std::vector<std::vector<uint32_t>> pools;
};

Stream MakeStream(const ServeSpec& spec, size_t num_users, size_t num_items,
                  uint64_t seed) {
  Stream s;
  if (spec.zipf) {
    serve::TraceConfig tc;
    tc.num_events = kStreamLen;
    tc.num_users = num_users;
    tc.num_items = num_items;
    tc.zipf_s = 1.1;
    tc.rerank_frac = 0.1;
    tc.cold_frac = 0.05;
    tc.seed = seed;
    serve::Trace t = serve::GenerateTrace(tc);
    s.events = std::move(t.events);
    s.pools = std::move(t.rerank_pools);
  } else {
    Rng rng(seed);
    s.events.resize(kStreamLen);
    for (serve::TraceEvent& ev : s.events) {
      ev.user = static_cast<uint32_t>(rng.NextBelow(num_users));
      ev.scenario = serve::Scenario::kFullRanking;
    }
  }
  return s;
}

// Everything the request loops share, read-only while they run.
struct Shared {
  std::shared_ptr<const serve::ServingIndex> index;
  serve::Server* server = nullptr;
  const Stream* stream = nullptr;
  const std::vector<std::vector<uint32_t>>* exclude = nullptr;
};

void Fill(const Shared& sh, size_t pos, serve::Request* req) {
  const serve::TraceEvent& ev = sh.stream->events[pos % kStreamLen];
  req->user = ev.user;
  req->k = kTopK;
  req->scenario = ev.scenario;
  req->candidates = nullptr;
  req->exclude = nullptr;
  if (ev.scenario == serve::Scenario::kRerank) {
    req->candidates = &sh.stream->pools[ev.pool];
  } else if (ev.user < sh.exclude->size()) {
    req->exclude = &(*sh.exclude)[ev.user];
  }
}

bool Contains(const std::vector<uint32_t>* sorted, uint32_t id) {
  return sorted != nullptr &&
         std::binary_search(sorted->begin(), sorted->end(), id);
}

// Size = min(k, available), scores non-increasing, no excluded item,
// re-rank results inside the pool, and the scenario actually served.
bool ReplyIsWellFormed(const Shared& sh, const serve::Request& req,
                       const serve::Reply& reply) {
  const size_t n = sh.index->num_items();
  const bool known = req.user < sh.index->num_users();
  size_t available = n;
  serve::Scenario served = req.scenario;
  if (req.scenario == serve::Scenario::kRerank) {
    available = req.candidates->size();
  } else {
    if (req.exclude != nullptr) available -= req.exclude->size();
    if (!known) served = serve::Scenario::kColdStart;
  }
  if (reply.served != served) return false;
  if (reply.items.size() != std::min<size_t>(req.k, available)) return false;
  if (reply.scores.size() != reply.items.size()) return false;
  for (size_t r = 0; r < reply.items.size(); ++r) {
    const uint32_t id = reply.items[r];
    if (id >= n || Contains(req.exclude, id)) return false;
    if (req.scenario == serve::Scenario::kRerank &&
        !Contains(req.candidates, id)) {
      return false;
    }
    if (r > 0 && !(reply.scores[r] <= reply.scores[r - 1])) return false;
  }
  return true;
}

// The offline ranking the served one must equal bitwise: IndexScorer
// scores (or the cold-start prior), exclusions masked, sorted by score
// descending with ties to the smaller id.
void ReferenceRanking(const Shared& sh, const serve::Request& req,
                      std::vector<uint32_t>* items,
                      std::vector<float>* scores) {
  const serve::ServingIndex& index = *sh.index;
  std::vector<float> all;
  if (req.user < index.num_users()) {
    serve::IndexScorer(&index).ScoreItems(req.user, &all);
  } else {
    all = index.cold_start_prior();
  }
  std::vector<uint32_t> ids;
  if (req.scenario == serve::Scenario::kRerank) {
    ids = *req.candidates;
  } else {
    for (uint32_t i = 0; i < all.size(); ++i) {
      if (!Contains(req.exclude, i)) ids.push_back(i);
    }
  }
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    if (all[a] != all[b]) return all[a] > all[b];
    return a < b;
  });
  ids.resize(std::min<size_t>(ids.size(), req.k));
  items->assign(ids.begin(), ids.end());
  scores->clear();
  for (uint32_t id : ids) scores->push_back(all[id]);
}

// Per-client state, allocated before a loop starts so the loop itself
// only writes into reserved buffers.
struct Client {
  std::unique_ptr<serve::RequestContext> ctx;
  serve::Reply reply;
  serve::Request req;
  std::vector<double> latency_us;  ///< Closed loop only.
  uint64_t completed = 0;
  uint64_t malformed = 0;
  uint64_t last_done_ns = 0;
  // Sampled replies, checked against the reference after the loop.
  std::vector<size_t> sample_pos;
  std::vector<uint32_t> sample_items;
  std::vector<float> sample_scores;
  std::vector<uint32_t> sample_len;
  // Traced-run accumulators and replay scratch.
  SpanBuffer* spans = nullptr;
  uint64_t rank_ns = 0, self_ns = 0, score_ns = 0, select_ns = 0;
  uint64_t replays = 0, hits = 0, replay_mismatch = 0;
  std::vector<float> scratch;
  std::vector<uint32_t> top;
  eval::TopKSelector selector;

  void Reset() {
    latency_us.clear();
    completed = malformed = last_done_ns = 0;
    sample_pos.clear();
    sample_items.clear();
    sample_scores.clear();
    sample_len.clear();
    rank_ns = self_ns = score_ns = select_ns = 0;
    replays = hits = replay_mismatch = 0;
  }
};

// The clients and the open loop's per-request arrays. Every latency array
// is sized and touched here, before any loop runs, so the loops never
// allocate and the process's resident size does not depend on the
// request count. The open-loop arrays hold `max_open` requests, the
// largest window any open loop of the phase schedules.
struct Clients {
  std::vector<Client> c;
  std::vector<double> merged;
  std::vector<uint64_t> due_ns;
  std::vector<double> open_latency_us;
  std::vector<double> open_lag_us;

  Clients(const Shared& sh,
          std::vector<std::unique_ptr<serve::RequestContext>> contexts,
          size_t max_open)
      : c(contexts.size()) {
    const size_t max_k = sh.server->options().max_k;
    merged.resize(std::max(kLatenciesPerClient * c.size(), max_open));
    merged.clear();
    due_ns.resize(max_open);
    open_latency_us.resize(max_open);
    open_lag_us.resize(max_open);
    for (size_t i = 0; i < c.size(); ++i) {
      Client& cl = c[i];
      cl.latency_us.resize(kLatenciesPerClient);
      cl.latency_us.clear();
      cl.ctx = std::move(contexts[i]);
      cl.reply.Reserve(max_k);
      cl.sample_pos.reserve(kMaxSamplesPerClient);
      cl.sample_items.reserve(kMaxSamplesPerClient * max_k);
      cl.sample_scores.reserve(kMaxSamplesPerClient * max_k);
      cl.sample_len.reserve(kMaxSamplesPerClient);
      cl.scratch.resize(sh.index->num_items());
      cl.selector.Reserve(max_k);
      cl.top.reserve(max_k);
    }
  }
};

// Runs fn(i) for i in [0, n) on n fresh threads and joins them. `start`
// runs once all threads are up and before any of them calls fn, so a
// loop's clock starts with every client ready. Client i always runs on
// thread i, so its RequestContext is never shared.
template <typename Start, typename Fn>
void RunClients(size_t n, Start start, Fn fn) {
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(i);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  start();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

// Replays the miss's scan and select on the client thread (traced run):
// la::ScoreItemsForUser over the item table, the exclusion mask, and
// TopKSelector::Select. The replayed top-k must equal the reply.
void ReplayMiss(const Shared& sh, uint64_t rank_span, uint64_t request,
                Client* cl) {
  const serve::ServingIndex& index = *sh.index;
  const serve::Request& req = cl->req;
  const uint64_t t0 = NowNs();
  la::ScoreItemsForUser(index.item_vecs(), index.user_vecs().Row(req.user),
                        index.bias(), cl->scratch.data());
  const uint64_t t1 = NowNs();
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) cl->scratch[id] = kNegInf;
  }
  const uint64_t t2 = NowNs();
  cl->selector.Select(cl->scratch.data(), index.num_items(), req.k, &cl->top);
  const uint64_t t3 = NowNs();
  cl->spans->Record("la.score_items_for_user", rank_span, request, t0, t1);
  cl->spans->Record("eval.select", rank_span, request, t2, t3);
  cl->score_ns += t1 - t0;
  cl->select_ns += t3 - t2;
  ++cl->replays;
  const size_t m = cl->reply.items.size();
  bool same = cl->top.size() >= m;
  for (size_t r = 0; same && r < m; ++r) {
    same = cl->top[r] == cl->reply.items[r];
  }
  if (!same) ++cl->replay_mismatch;
}

struct Sent {
  uint64_t send_ns = 0;
  uint64_t done_ns = 0;
};

// Issues stream position `pos`, checks and samples its reply, and returns
// when it was sent and when it completed.
Sent Issue(const Shared& sh, size_t pos, Client* cl) {
  Fill(sh, pos, &cl->req);
  const uint64_t request = pos + 1;
  uint64_t span_id = 0;
  if (cl->spans != nullptr) span_id = cl->spans->NextId();
  const uint64_t send = NowNs();
  sh.server->Rank(cl->req, cl->ctx.get(), &cl->reply);
  const uint64_t done = NowNs();
  cl->last_done_ns = done;
  ++cl->completed;

  if (cl->spans != nullptr) {
    cl->spans->RecordWithId(span_id, "serve.rank", 0, request, send, done);
    const uint64_t rank = done - send;
    cl->rank_ns += rank;
    uint64_t replay = 0;
    if (cl->reply.cache_hit) {
      ++cl->hits;
    } else if (cl->req.scenario == serve::Scenario::kFullRanking &&
               cl->req.user < sh.index->num_users()) {
      const uint64_t s0 = cl->score_ns + cl->select_ns;
      ReplayMiss(sh, span_id, request, cl);
      replay = cl->score_ns + cl->select_ns - s0;
    }
    cl->self_ns += rank > replay ? rank - replay : 0;
  }

  if (!ReplyIsWellFormed(sh, cl->req, cl->reply)) ++cl->malformed;
  if (pos % kSampleStride == 0 &&
      cl->sample_pos.size() < kMaxSamplesPerClient) {
    cl->sample_pos.push_back(pos);
    cl->sample_len.push_back(static_cast<uint32_t>(cl->reply.items.size()));
    cl->sample_items.insert(cl->sample_items.end(), cl->reply.items.begin(),
                            cl->reply.items.end());
    cl->sample_scores.insert(cl->sample_scores.end(),
                             cl->reply.scores.begin(),
                             cl->reply.scores.end());
  }
  return {send, done};
}

// Checks every client's replies; returns the number of requests issued.
uint64_t Verify(const Shared& sh, Clients* clients, Report* report) {
  uint64_t issued = 0, malformed = 0, mismatched = 0, replay_bad = 0;
  std::vector<uint32_t> items;
  std::vector<float> scores;
  serve::Request req;
  for (Client& cl : clients->c) {
    issued += cl.completed;
    malformed += cl.malformed;
    replay_bad += cl.replay_mismatch;
    size_t off = 0;
    for (size_t s = 0; s < cl.sample_pos.size(); ++s) {
      Fill(sh, cl.sample_pos[s], &req);
      ReferenceRanking(sh, req, &items, &scores);
      const size_t len = cl.sample_len[s];
      bool same = len == items.size();
      for (size_t r = 0; same && r < len; ++r) {
        same = cl.sample_items[off + r] == items[r] &&
               std::memcmp(&cl.sample_scores[off + r], &scores[r],
                           sizeof(float)) == 0;
      }
      if (!same) ++mismatched;
      off += len;
    }
  }
  report->Attempt(issued);
  if (malformed > 0) report->Fail("malformed replies", malformed);
  if (mismatched > 0) {
    report->Fail("replies differ from the IndexScorer reference", mismatched);
  }
  if (replay_bad > 0) {
    report->Fail("replayed scan+select differs from the reply", replay_bad);
  }
  return issued;
}

// One measurement window. Loops are measured as many short windows spread
// over the run and reported as the fast-side quartile of the windows
// (FastTime, FastRate), so host stalls and busy periods, which land in up
// to half of the windows, spoil those windows instead of the figure.
struct Window {
  uint64_t completed = 0;
  double rate = 0.0;  ///< Completions per second.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lag_p99_us = 0.0;  ///< Open loop: how late requests were sent.
};

// Completions and their rate from `t0` to the last completion.
Window Completions(const Clients& clients, uint64_t t0) {
  Window w;
  uint64_t last = t0;
  for (const Client& cl : clients.c) {
    w.completed += cl.completed;
    last = std::max(last, cl.last_done_ns);
  }
  const double wall = static_cast<double>(last - t0) / 1e9;
  w.rate = wall > 0.0 ? static_cast<double>(w.completed) / wall : 0.0;
  return w;
}

// "rate/p50/p99/lag_p99" of each window, for the run's context lines.
std::string Describe(const std::vector<Window>& ws) {
  std::string out;
  char buf[128];
  for (const Window& w : ws) {
    std::snprintf(buf, sizeof(buf), "%s%.0f/s p50 %.3g us p99 %.0f us lag %.0f us",
                  out.empty() ? "" : "; ", w.rate, w.p50_us, w.p99_us,
                  w.lag_p99_us);
    out += buf;
  }
  return out;
}

// One field of every window.
std::vector<double> Field(const std::vector<Window>& ws,
                          double Window::*field) {
  std::vector<double> v;
  for (const Window& w : ws) v.push_back(w.*field);
  return v;
}

// Closed loop: every client issues its next request as soon as the
// previous one returns, for `seconds`, or until one client's latency
// array is full; the window then ends early for every client.
Window ClosedLoop(const Shared& sh, Clients* clients, double seconds,
                  size_t* cursor, Report* report) {
  for (Client& cl : clients->c) cl.Reset();
  std::atomic<size_t> next{*cursor};
  std::atomic<bool> full{false};
  uint64_t t0 = 0, end = 0;
  RunClients(
      clients->c.size(),
      [&] {
        t0 = NowNs();
        end = t0 + static_cast<uint64_t>(seconds * 1e9);
      },
      [&](size_t c) {
        Client& cl = clients->c[c];
        while (NowNs() < end && !full.load(std::memory_order_relaxed)) {
          const Sent s =
              Issue(sh, next.fetch_add(1, std::memory_order_relaxed), &cl);
          cl.latency_us.push_back(static_cast<double>(s.done_ns - s.send_ns) /
                                  1e3);
          if (cl.latency_us.size() == kLatenciesPerClient) full.store(true);
        }
      });
  *cursor = next.load();
  Verify(sh, clients, report);
  Window w = Completions(*clients, t0);
  std::vector<double>& all = clients->merged;
  all.clear();
  for (const Client& cl : clients->c) {
    all.insert(all.end(), cl.latency_us.begin(), cl.latency_us.end());
  }
  w.p50_us = Percentile(&all, 50);
  w.p99_us = Percentile(&all, 99);
  return w;
}

// Open loop at `rate` requests/s for `seconds`: Poisson arrivals drawn
// from `seed`, rescaled so the last one is due at `seconds`. The
// dispatchers take requests in arrival order and send each no earlier
// than its due time; latency runs from the due time, and when all of
// them are busy the next request waits — that wait is the generator lag.
Window OpenLoop(const Shared& sh, Clients* clients, double rate,
                double seconds, uint64_t seed, size_t* cursor,
                Report* report) {
  const size_t n =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
  if (n > clients->due_ns.size()) {
    // The arrays are sized from the phase's highest rate, so this is a
    // benchmark bug; running fewer requests would misreport the rate.
    report->Fail("open-loop window exceeds its preallocated arrays");
    return Window{};
  }
  uint64_t* due_ns = clients->due_ns.data();
  {
    Rng rng(seed);
    std::vector<double>& t = clients->merged;
    t.clear();
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += -std::log(1.0 - rng.NextDouble());
      t.push_back(acc);
    }
    for (size_t i = 0; i < n; ++i) {
      due_ns[i] = static_cast<uint64_t>(t[i] / acc * seconds * 1e9);
    }
  }
  for (Client& cl : clients->c) cl.Reset();
  std::atomic<size_t> next{0};
  const size_t base = *cursor;
  uint64_t t0 = 0;
  RunClients(
      clients->c.size(),
      [&] { t0 = NowNs() + 1000000; },  // Dispatchers start 1 ms out.
      [&](size_t c) {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) break;
          const uint64_t due = t0 + due_ns[i];
          // Yield until due: a timed sleep, or waking a sleeping thread,
          // can overshoot by milliseconds under virtualization.
          while (NowNs() < due) std::this_thread::yield();
          const Sent s = Issue(sh, base + i, &clients->c[c]);
          clients->open_latency_us[i] =
              static_cast<double>(s.done_ns - due) / 1e3;
          clients->open_lag_us[i] = static_cast<double>(s.send_ns - due) / 1e3;
        }
      });
  *cursor = base + n;
  Verify(sh, clients, report);
  Window w = Completions(*clients, t0);
  // Percentile sorts in place, so it gets a copy of this window's entries.
  std::vector<double>& lat = clients->merged;
  lat.assign(clients->open_latency_us.begin(),
             clients->open_latency_us.begin() + n);
  w.p50_us = Percentile(&lat, 50);
  w.p99_us = Percentile(&lat, 99);
  lat.assign(clients->open_lag_us.begin(), clients->open_lag_us.begin() + n);
  w.lag_p99_us = Percentile(&lat, 99);
  return w;
}

std::shared_ptr<const serve::ServingIndex> BuildIndex(
    const data::Dataset& catalog, uint64_t seed) {
  constexpr size_t kDim = 64;
  Rng rng(seed);
  la::Matrix users = la::Matrix::Gaussian(catalog.num_users, kDim, 0.3f, &rng);
  la::Matrix items = la::Matrix::Gaussian(catalog.num_items, kDim, 0.3f, &rng);
  std::vector<float> bias(catalog.num_items);
  for (float& b : bias) b = rng.NextFloat() * 0.2f;
  models::DotScorer scorer(std::move(users), std::move(items),
                           std::move(bias));
  return std::make_shared<const serve::ServingIndex>(
      serve::ServingIndex::Freeze(scorer, catalog, "perfbench"));
}

// One serving setup: the loaded index, a server over it and one
// RequestContext per client, declared in that order so the contexts go
// first when it is destroyed.
struct Setup {
  std::shared_ptr<const serve::ServingIndex> index;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::RequestContext>> contexts;
};

// Loads the index at `path` and starts a server with `clients` contexts,
// appending the whole setup's seconds and the load's milliseconds. False,
// with the failure reported, when the load fails.
bool TimedSetup(const std::string& path, const serve::ServerOptions& opt,
                int clients, Report* report, std::vector<double>* setup_s,
                std::vector<double>* load_ms, Setup* out) {
  const uint64_t t0 = NowNs();
  Result<serve::ServingIndex> loaded = serve::ServingIndex::Load(path);
  const uint64_t t1 = NowNs();
  report->Attempt();
  if (!loaded.ok()) {
    report->Fail("ServingIndex::Load: " + loaded.status().ToString());
    return false;
  }
  out->index =
      std::make_shared<const serve::ServingIndex>(std::move(loaded).value());
  out->server = std::make_unique<serve::Server>(out->index, opt);
  for (int c = 0; c < clients; ++c) {
    out->contexts.push_back(
        std::make_unique<serve::RequestContext>(*out->server));
  }
  setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  load_ms->push_back(static_cast<double>(t1 - t0) / 1e6);
  return true;
}

}  // namespace

struct ServePhase::State {
  ServeSpec spec;
  RunContext ctx;
  bool ok = false;  ///< The index was saved and loaded.
  std::string path;
  double index_bytes = 0.0;
  serve::ServerOptions opt;
  std::vector<std::vector<uint32_t>> exclude;
  Stream stream;
  Shared sh;
  // The server the loops drive; destroyed after the clients' contexts.
  std::shared_ptr<const serve::ServingIndex> index;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Clients> clients;
  size_t cursor = 0;
  uint64_t window_seed = 0;
  double closed_window_s = 0.0, open_window_s = 0.0, rung_s = 0.0;
  std::vector<double> setup_s, load_ms;
  std::vector<Window> closed, open;
  std::vector<std::vector<Window>> ladder;  ///< Per rate, one per round.
};

ServePhase::ServePhase(const ServeSpec& spec, const RunContext& ctx,
                       double budget_s, const data::Dataset& catalog)
    : st_(std::make_unique<State>()) {
  State& s = *st_;
  s.spec = spec;
  s.ctx = ctx;
  Report* report = ctx.report;
  s.exclude = catalog.UserItemLists();
  s.path = ctx.work_dir + "/index-" + std::to_string(::getpid()) + ".pupc";
  {
    const auto built = BuildIndex(catalog, SubSeed(ctx.seed, 2));
    const Status st = built->Save(s.path);
    if (!st.ok()) {
      report->Fail("ServingIndex::Save: " + st.ToString());
      return;
    }
  }
  if (std::FILE* f = std::fopen(s.path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    s.index_bytes = static_cast<double>(std::ftell(f));
    std::fclose(f);
  }
  s.opt.max_k = kMaxK;  // Batching fields stay at their defaults.
  s.opt.cache_capacity = spec.cache_capacity;

  // The first timed setup starts the server the loops drive; each round
  // times more setups whose servers it discards.
  Setup live;
  if (!TimedSetup(s.path, s.opt, ctx.threads, report, &s.setup_s,
                  &s.load_ms, &live)) {
    return;
  }
  s.ok = true;
  s.index = live.index;
  s.server = std::move(live.server);
  report->Info("serve.users", std::to_string(s.index->num_users()));
  report->Info("serve.items", std::to_string(s.index->num_items()));
  report->Info("serve.dim", std::to_string(s.index->dim()));

  // Budget: a warm-up, then per round closed-loop windows, windows at the
  // fixed open-loop rate, and one window per ladder rate. Windows are
  // short so that a host stall, which can last 10-30 ms on a shared
  // virtual machine, spoils few of them.
  const size_t rungs = spec.ladder_qps.size();
  s.closed_window_s = kClosedShare * budget_s / (kRounds * kClosedPerRound);
  s.open_window_s = kOpenShare * budget_s / (kRounds * kOpenPerRound);
  s.rung_s = kLadderShare * budget_s / (kRounds * rungs);
  const double top_rate =
      *std::max_element(spec.ladder_qps.begin(), spec.ladder_qps.end());
  const size_t max_open = static_cast<size_t>(
      std::ceil(std::max(spec.open_rate_qps * s.open_window_s,
                         top_rate * s.rung_s))) + 1;

  s.stream = MakeStream(spec, catalog.num_users, catalog.num_items,
                        SubSeed(ctx.seed, 3));
  s.sh.index = s.index;
  s.sh.server = s.server.get();
  s.sh.stream = &s.stream;
  s.sh.exclude = &s.exclude;
  s.clients =
      std::make_unique<Clients>(s.sh, std::move(live.contexts), max_open);
  s.window_seed = SubSeed(ctx.seed, 4);
  s.ladder.resize(rungs);

  // Warm-up fills the cache and lazily sized buffers, and brings the
  // host's CPUs back from idle; not measured.
  ClosedLoop(s.sh, s.clients.get(),
             (1.0 - kClosedShare - kOpenShare - kLadderShare) * budget_s,
             &s.cursor, report);
}

ServePhase::~ServePhase() {
  if (!st_->path.empty()) std::remove(st_->path.c_str());
}

void ServePhase::Round() {
  State& s = *st_;
  if (!s.ok) return;
  Report* report = s.ctx.report;
  for (int i = 0; i < s.spec.setup_reps_per_round; ++i) {
    Setup discarded;
    if (!TimedSetup(s.path, s.opt, s.ctx.threads, report, &s.setup_s,
                    &s.load_ms, &discarded)) {
      s.ok = false;
      return;
    }
  }
  for (int i = 0; i < kClosedPerRound; ++i) {
    s.closed.push_back(ClosedLoop(s.sh, s.clients.get(), s.closed_window_s,
                                  &s.cursor, report));
  }
  for (int i = 0; i < kOpenPerRound; ++i) {
    s.open.push_back(OpenLoop(s.sh, s.clients.get(), s.spec.open_rate_qps,
                              s.open_window_s, ++s.window_seed, &s.cursor,
                              report));
  }
  // One pass over the ladder, in ascending order. With one pass per round
  // a host busy period of a few seconds falls on a minority of each
  // rate's windows instead of on all windows of a few rates.
  for (size_t r = 0; r < s.ladder.size(); ++r) {
    s.ladder[r].push_back(OpenLoop(s.sh, s.clients.get(),
                                   s.spec.ladder_qps[r], s.rung_s,
                                   ++s.window_seed, &s.cursor, report));
  }
}

double ServePhase::Finish() {
  State& s = *st_;
  Report* report = s.ctx.report;
  if (!s.ok) return 0.0;
  report->Set("serve_setup_ms", 1e3 * FastTime(s.setup_s), "ms");
  report->Info("serve.setups", std::to_string(s.setup_s.size()));

  report->Info("serve.closed_windows", Describe(s.closed));
  const double qps = FastRate(Field(s.closed, &Window::rate));
  report->Set("serve.qps", qps, "1/s");
  report->Set("p50_us", FastTime(Field(s.closed, &Window::p50_us)), "us");
  report->Set("serve.p99_us", FastTime(Field(s.closed, &Window::p99_us)),
              "us");

  report->Info("serve.open_windows", Describe(s.open));
  report->Set("serve.open_p99_us", FastTime(Field(s.open, &Window::p99_us)),
              "us");

  // A rate passes when the fast-side quartile of its windows' p99s is
  // within the limit; latency runs from due time, so a backlog that grows
  // during a window fails it in every window. serve.slo_rate_qps is the
  // fast-side quartile of the completion rates of the highest rate that
  // passes. It is printed in every run and reported with the per-layer
  // metrics: a rate ladder on a shared host is not steady enough to gate
  // (see README.md).
  double slo_rate = 0.0;
  for (size_t r = 0; r < s.ladder.size(); ++r) {
    const std::vector<Window>& ws = s.ladder[r];
    int meets = 0;
    for (const Window& w : ws) meets += w.p99_us <= s.spec.p99_limit_us;
    const double rate = FastRate(Field(ws, &Window::rate));
    const double p99 = FastTime(Field(ws, &Window::p99_us));
    char line[200];
    std::snprintf(line, sizeof(line),
                  "rate %.0f/s: window %.1f/s p99 %.1f us lag p99 %.1f us, "
                  "%d/%zu windows meet p99 <= %.0f us",
                  s.spec.ladder_qps[r], rate, p99,
                  FastTime(Field(ws, &Window::lag_p99_us)), meets, ws.size(),
                  s.spec.p99_limit_us);
    report->Info("serve.ladder", line);
    if (p99 <= s.spec.p99_limit_us) slo_rate = rate;
  }
  report->Info("serve.slo_rate_qps", std::to_string(slo_rate));
  report->Set("serve.slo_rate_qps", slo_rate, "1/s");

  if (s.ctx.trace) {
    Clients* clients = s.clients.get();
    for (Client& cl : clients->c) {
      cl.spans = s.ctx.spans->NewBuffer(kSpansPerClient);
    }
    obs::Registry& reg = obs::Registry::Global();
    obs::Counter* batches = reg.GetCounter("serve/batches");
    obs::Histogram* occupancy = reg.GetHistogram("serve/batch_occupancy");
    const uint64_t batches0 = batches->Get();
    const uint64_t occ_sum0 = occupancy->Sum(), occ_n0 = occupancy->Count();
    const Window traced =
        ClosedLoop(s.sh, clients, s.closed_window_s, &s.cursor, report);
    const uint64_t occ_n = occupancy->Count() - occ_n0;
    uint64_t rank_ns = 0, self_ns = 0, score_ns = 0, select_ns = 0;
    uint64_t replays = 0, hits = 0;
    for (Client& cl : clients->c) {
      rank_ns += cl.rank_ns;
      self_ns += cl.self_ns;
      score_ns += cl.score_ns;
      select_ns += cl.select_ns;
      replays += cl.replays;
      hits += cl.hits;
      cl.spans = nullptr;
    }
    const double reqs =
        static_cast<double>(std::max<uint64_t>(traced.completed, 1));
    const double misses = static_cast<double>(std::max<uint64_t>(replays, 1));
    report->Set("serve.rank_us", rank_ns / 1e3 / reqs, "us");
    report->Set("serve.self_us", self_ns / 1e3 / reqs, "us");
    report->Set("serve.cache_hit_ratio", hits / reqs, "ratio");
    report->Set("serve.batches",
                static_cast<double>(batches->Get() - batches0), "count");
    report->Set("serve.batch_occupancy",
                occ_n == 0 ? 0.0
                           : static_cast<double>(occupancy->Sum() - occ_sum0) /
                                 static_cast<double>(occ_n),
                "count");
    report->Set("la.score_us", score_ns / 1e3 / misses, "us");
    report->Set("la.score_bytes",
                4.0 * (static_cast<double>(s.index->num_items()) *
                           static_cast<double>(s.index->dim() + 2) +
                       static_cast<double>(s.index->dim())),
                "bytes");
    report->Set("eval.select_us", select_ns / 1e3 / misses, "us");
    report->Set("trace.serve_overhead", qps / traced.rate, "ratio");
    report->Set("load.gen_lag_us", Median(Field(s.open, &Window::lag_p99_us)),
                "us");
    report->Set("ckpt.index_load_ms", FastTime(s.load_ms), "ms");
    report->Set("ckpt.index_bytes", s.index_bytes, "bytes");
  }
  return FastTime(s.setup_s);
}

}  // namespace perfbench
