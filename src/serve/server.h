// pup::serve — the online ranking front end.
//
// A Server answers synchronous top-K requests over a frozen ServingIndex.
// A reply is a pure function of (index snapshot, request), so requests
// never meet: Rank checks the cache, takes the current (snapshot,
// generation) pair under a short lock, and scores the request to
// completion on the caller's thread and RequestContext. The server's
// parallelism is its concurrent callers; no serving kernel fans out to
// the thread pool.
//
// Determinism contract (docs/serving.md): for a fixed index and SIMD
// backend, the reply for a request is a pure function of the request —
// independent of client and kernel thread counts and of cache state.
// The scoring kernels guarantee the scores (shared row-dot primitive per
// backend) and eval::TopKSelector guarantees the ordering (score desc,
// ties to smaller id), so served rankings are bitwise-identical to the
// offline eval ranking of the same index.
//
// Quantized serving (docs/quantization.md): when the index carries an
// int8/int4 table, full rankings run as an exact-int32 fastscan over the
// code table, take the top rerank_factor * k survivors by approximate
// score, and re-rank the survivors at f32 through a pinned-16-lane dot.
// That path carries a STRONGER determinism contract than the f32 scan:
// the reply is bitwise-identical across SIMD backends too, not just per
// backend.
//
// Zero-alloc steady state: all scoring buffers live in the caller-owned
// RequestContext, reply buffers are bounded by max_k, and the cache is
// fully preallocated — after warmup a request makes no heap allocation
// on its thread (serve_test counts every operator new to pin it).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/topk.h"
#include "la/qmatrix.h"
#include "obs/registry.h"
#include "serve/cache.h"
#include "serve/index.h"

namespace pup::serve {

/// Traffic classes the server admits.
enum class Scenario : uint8_t {
  /// Rank every item in the catalog for a known user.
  kFullRanking = 0,
  /// Re-rank a caller-supplied candidate pool for a known user.
  kRerank = 1,
  /// No usable user state: rank by the price-level popularity prior.
  kColdStart = 2,
};

/// One ranking request. Borrowed pointers must outlive the Rank call.
struct Request {
  uint32_t user = 0;
  /// Result size; must be in [1, ServerOptions::max_k].
  uint32_t k = 10;
  Scenario scenario = Scenario::kFullRanking;
  /// Candidate pool for kRerank: sorted ascending, unique, ids <
  /// num_items. Required for kRerank, ignored otherwise.
  const std::vector<uint32_t>* candidates = nullptr;
  /// Item ids to exclude (the user's seen items): sorted ascending, ids <
  /// num_items. Optional; applies to kFullRanking and kColdStart.
  const std::vector<uint32_t>* exclude = nullptr;
};

/// A served ranking, best first. May hold fewer than k items when the
/// catalog (minus exclusions / candidates) runs out.
struct Reply {
  std::vector<uint32_t> items;
  std::vector<float> scores;
  /// Scenario actually served (kColdStart for unknown-user fallback).
  Scenario served = Scenario::kFullRanking;
  bool cache_hit = false;

  /// Pre-sizes the buffers so steady-state replies never allocate.
  void Reserve(size_t max_k) {
    items.reserve(max_k);
    scores.reserve(max_k);
  }
};

struct ServerOptions {
  /// Hot-user result cache entries; 0 disables the cache.
  size_t cache_capacity = 0;
  /// Largest admissible k; sizes every reply/cache/selector buffer.
  size_t max_k = 100;
  /// Quantized path only: survivors kept for the exact-f32 re-rank stage
  /// are min(num_items, rerank_factor * k). Larger values trade QPS for
  /// recall; must be >= 1. Ignored when the index is not quantized.
  size_t rerank_factor = 4;
};

class Server;

/// Per-thread scoring scratch: score buffers and selector state.
/// Constructing one allocates everything up front; a thread reuses it
/// across requests so the request loop stays allocation-free.
class RequestContext {
 public:
  explicit RequestContext(const Server& server);

 private:
  friend class Server;

  std::vector<float> scores_;  ///< Catalog / subset / prior scores.
  std::vector<uint32_t> topk_;
  eval::TopKSelector selector_;

  // Quantized-path scratch (sized for either quant mode up front, so a
  // Reload onto a quantized index stays allocation-free).
  la::QuantizedQuery qquery_;          ///< Per-request quantized user codes.
  std::vector<int32_t> qacc_;          ///< Exact int32 fastscan dots.
  std::vector<uint32_t> survivors_;    ///< Top R*k approx ids, sorted by id.
  std::vector<float> rerank_scores_;   ///< Exact f32 survivor scores.
  eval::TopKSelector qselector_;       ///< Survivor selection (R*max_k).
};

/// Thread-safe serving front end over an immutable index snapshot.
class Server {
 public:
  Server(std::shared_ptr<const ServingIndex> index, ServerOptions options);

  /// Ranks synchronously on the calling thread. `ctx` must not be shared
  /// between threads; `reply` should be Reserve'd to max_k by the caller
  /// once.
  void Rank(const Request& req, RequestContext* ctx, Reply* reply);

  /// Swaps in a freshly loaded index, bumps the generation, and
  /// invalidates the cache. A request already scoring finishes on the
  /// snapshot it took; every request that starts after Reload returns
  /// sees only the new index.
  void Reload(std::shared_ptr<const ServingIndex> index);

  /// The index snapshot current requests rank from.
  std::shared_ptr<const ServingIndex> snapshot() const;

  uint64_t generation() const;
  const ServerOptions& options() const { return options_; }
  /// nullptr when cache_capacity == 0.
  ResultCache* cache() { return cache_.get(); }

 private:
  void ServeFullRanking(const ServingIndex& index, uint64_t generation,
                        const Request& req, Reply* reply,
                        RequestContext* ctx);
  void ServeFullRankingQuantized(const ServingIndex& index,
                                 uint64_t generation, const Request& req,
                                 Reply* reply, RequestContext* ctx);
  void ServeSubset(const ServingIndex& index, const Request& req,
                   Reply* reply, RequestContext* ctx);
  void ServePrior(const ServingIndex& index, const Request& req, Reply* reply,
                  RequestContext* ctx);

  ServerOptions options_;

  mutable std::mutex mu_;  ///< Guards the (index_, generation_) pair.
  std::shared_ptr<const ServingIndex> index_;
  std::atomic<uint64_t> generation_{0};

  std::unique_ptr<ResultCache> cache_;

  // Handles resolved once at construction; recording never allocates.
  obs::Counter* requests_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
};

}  // namespace pup::serve
