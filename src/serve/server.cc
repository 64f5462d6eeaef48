#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "la/kernels.h"

namespace pup::serve {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Copies the selected ranking into the reply, best first, dropping the
// tail once only masked (-inf) entries remain — an excluded item is never
// served, so a sparse catalog may legally return fewer than k items.
// PUP_HOT: bounded by max_k; reply buffers are Reserve'd by the caller.
void EmitRanked(const float* scores, const std::vector<uint32_t>& top,
                const std::vector<uint32_t>* remap, Reply* reply) {
  reply->items.clear();
  reply->scores.clear();
  for (uint32_t id : top) {
    if (scores[id] == kNegInf) break;
    // NOLINTNEXTLINE(pup-hot-alloc): <= max_k entries, Reserve'd buffer.
    reply->items.push_back(remap != nullptr ? (*remap)[id] : id);
    // NOLINTNEXTLINE(pup-hot-alloc): <= max_k entries, Reserve'd buffer.
    reply->scores.push_back(scores[id]);
  }
}

}  // namespace

RequestContext::RequestContext(const Server& server) {
  const ServerOptions& opt = server.options();
  const std::shared_ptr<const ServingIndex> index = server.snapshot();
  scores_.reserve(index->num_items());
  topk_.reserve(opt.max_k);
  selector_.Reserve(opt.max_k);
  // Quantized scratch, reserved for whichever quant mode needs more (an
  // int4 query splits into two stride-sized halves, which can exceed the
  // int8 buffer at small dims) — so a later Reload onto a differently
  // quantized index never allocates in the request loop.
  const size_t d = index->dim();
  const size_t i8 = la::QuantizedTable::RowStrideFor(la::QuantMode::kInt8, d);
  const size_t i4 =
      2 * la::QuantizedTable::RowStrideFor(la::QuantMode::kInt4, d);
  qquery_.codes.reserve(i8 > i4 ? i8 : i4);
  qacc_.reserve(index->num_items());
  const size_t survivors = opt.rerank_factor * opt.max_k;
  survivors_.reserve(survivors);
  rerank_scores_.reserve(survivors);
  qselector_.Reserve(survivors);
}

Server::Server(std::shared_ptr<const ServingIndex> index,
               ServerOptions options)
    : options_(options), index_(std::move(index)) {
  PUP_CHECK(index_ != nullptr);
  PUP_CHECK(options_.max_k >= 1);
  PUP_CHECK(options_.rerank_factor >= 1);
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(
        options_.cache_capacity, index_->num_users(), options_.max_k);
  }
  obs::Registry& reg = obs::Registry::Global();
  requests_ = reg.GetCounter("serve/requests");
  cache_hits_ = reg.GetCounter("serve/cache_hit");
  cache_misses_ = reg.GetCounter("serve/cache_miss");
}

std::shared_ptr<const ServingIndex> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_;
}

uint64_t Server::generation() const {
  return generation_.load(std::memory_order_relaxed);
}

void Server::Reload(std::shared_ptr<const ServingIndex> index) {
  PUP_CHECK(index != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    index_ = std::move(index);
    // Bump under mu_ so the (snapshot, generation) pair a request takes
    // is always consistent; readers use the relaxed atomic.
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  if (cache_ != nullptr) cache_->Invalidate();
}

// PUP_HOT: the serving request loop — no allocation in steady state; the
// only locks are the cache set's and the snapshot read below.
void Server::Rank(const Request& req, RequestContext* ctx, Reply* reply) {
  PUP_CHECK_MSG(req.k >= 1 && req.k <= options_.max_k,
                "request k outside [1, max_k]");
  requests_->Add(1);
  reply->cache_hit = false;
  if (cache_ != nullptr && req.scenario == Scenario::kFullRanking) {
    if (cache_->Lookup(req.user, req.k,
                       generation_.load(std::memory_order_relaxed),
                       &reply->items, &reply->scores)) {
      reply->served = Scenario::kFullRanking;
      reply->cache_hit = true;
      cache_hits_->Add(1);
      return;
    }
    cache_misses_->Add(1);
  }

  std::shared_ptr<const ServingIndex> index;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);  // NOLINT(pup-hot-transitive): snapshot read — copies the (index, generation) pair Reload swaps; held for one refcount bump.
    index = index_;
    generation = generation_.load(std::memory_order_relaxed);
  }
  // Unknown users cannot be scored from the user table: fall back to the
  // price-level popularity prior (full ranking) or to the prior
  // restricted to the candidate pool (re-rank).
  Scenario served = req.scenario;
  if (served == Scenario::kFullRanking && req.user >= index->num_users()) {
    served = Scenario::kColdStart;
  }
  if (served == Scenario::kFullRanking) {
    // NOLINTNEXTLINE(pup-hot-alloc): <= num_items floats, Reserve'd buffer.
    ctx->scores_.resize(index->num_items());
    if (index->quantized()) {
      ServeFullRankingQuantized(*index, generation, req, reply, ctx);
    } else {
      ServeFullRanking(*index, generation, req, reply, ctx);
    }
  } else if (served == Scenario::kRerank) {
    ServeSubset(*index, req, reply, ctx);
  } else {
    ServePrior(*index, req, reply, ctx);
  }
  reply->served = served;
}

// PUP_HOT: quantized full ranking — int8/int4 fastscan over the code
// table, survivor selection at rerank_factor * k, exact-f32 re-rank of
// the survivors. Every stage is bitwise-deterministic across backends
// and thread counts: the scan accumulates in exact int32, the dequant
// epilogue is fixed-order scalar math, survivor membership comes from
// the strict (score desc, id asc) selector, and the re-rank dot runs in
// a pinned 16-virtual-lane shape on every ISA.
void Server::ServeFullRankingQuantized(const ServingIndex& index,
                                       uint64_t generation, const Request& req,
                                       Reply* reply, RequestContext* ctx) {
  const size_t n = index.num_items();
  const la::QuantizedTable& qt = index.quant_items();
  const float* user = index.user_vecs().Row(req.user);
  {
    PUP_OBS_SCOPED_TIMER("serve/quant/fastscan");
    ctx->qquery_.Prepare(user, qt);
    // NOLINTNEXTLINE(pup-hot-alloc): <= num_items entries, Reserve'd buffer.
    ctx->qacc_.resize(n);
    la::ScoreItemsQuantized(qt, ctx->qquery_, index.bias(), ctx->qacc_.data(),
                            ctx->scores_.data());
  }
  PUP_OBS_SCOPED_TIMER("serve/quant/post_scan");
  float* approx = ctx->scores_.data();
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) {
      PUP_CHECK_MSG(id < n, "excluded item id out of range");
      approx[id] = kNegInf;
    }
  }
  const size_t budget = options_.rerank_factor * static_cast<size_t>(req.k);
  {
    PUP_OBS_SCOPED_TIMER("serve/quant/select");
    ctx->qselector_.Select(approx, n, budget < n ? budget : n,
                           &ctx->survivors_);
  }
  // Survivor order is membership only; sorting by id makes the final
  // selector's positional tie-break an id tie-break, the same strict
  // (score desc, id asc) order every other serving path emits.
  std::sort(ctx->survivors_.begin(), ctx->survivors_.end());
  // NOLINTNEXTLINE(pup-hot-alloc): <= rerank_factor * max_k, Reserve'd.
  ctx->rerank_scores_.resize(ctx->survivors_.size());
  la::ScoreItemsRerank(index.item_vecs(), user, index.bias(),
                       ctx->survivors_.data(), ctx->survivors_.size(),
                       ctx->rerank_scores_.data());
  // Re-apply the exclusion mask: an excluded id reaches the survivor set
  // only when the unmasked catalog is smaller than the budget, but it
  // must never be served with its true score.
  for (size_t j = 0; j < ctx->survivors_.size(); ++j) {
    if (approx[ctx->survivors_[j]] == kNegInf) {
      ctx->rerank_scores_[j] = kNegInf;
    }
  }
  ctx->selector_.Select(ctx->rerank_scores_.data(), ctx->survivors_.size(),
                        req.k, &ctx->topk_);
  EmitRanked(ctx->rerank_scores_.data(), ctx->topk_, &ctx->survivors_, reply);
  if (cache_ != nullptr) {
    cache_->Insert(req.user, req.k, generation, reply->items, reply->scores);
  }
}

// PUP_HOT: full-catalog ranking for one request, scored into the
// context's catalog-sized buffer and masked in place.
void Server::ServeFullRanking(const ServingIndex& index, uint64_t generation,
                              const Request& req, Reply* reply,
                              RequestContext* ctx) {
  const size_t n = index.num_items();
  float* scores = ctx->scores_.data();
  la::ScoreItemsForUser(index.item_vecs(), index.user_vecs().Row(req.user),
                        index.bias(), scores);
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) {
      PUP_CHECK_MSG(id < n, "excluded item id out of range");
      scores[id] = kNegInf;
    }
  }
  ctx->selector_.Select(scores, n, req.k, &ctx->topk_);
  EmitRanked(scores, ctx->topk_, nullptr, reply);
  if (cache_ != nullptr) {
    cache_->Insert(req.user, req.k, generation, reply->items, reply->scores);
  }
}

// PUP_HOT: candidate re-rank. The pool must be sorted ascending and
// unique, so selecting by pool position breaks ties exactly like the
// full ranking breaks them by item id — rerank results are the full
// ranking restricted to the pool, bitwise.
void Server::ServeSubset(const ServingIndex& index, const Request& req,
                         Reply* reply, RequestContext* ctx) {
  PUP_CHECK_MSG(req.candidates != nullptr && !req.candidates->empty(),
                "kRerank request without candidates");
  const std::vector<uint32_t>& cand = *req.candidates;
  const size_t n = index.num_items();
  PUP_CHECK_MSG(cand.size() <= n, "candidate pool larger than catalog");
  for (size_t j = 0; j < cand.size(); ++j) {
    PUP_CHECK_MSG(cand[j] < n, "candidate item id out of range");
    PUP_CHECK_MSG(j == 0 || cand[j] > cand[j - 1],
                  "candidates must be sorted ascending and unique");
  }
  // NOLINTNEXTLINE(pup-hot-alloc): <= num_items floats, Reserve'd buffer.
  ctx->scores_.resize(cand.size());
  if (req.user < index.num_users()) {
    la::ScoreItemsSubset(index.item_vecs(), index.user_vecs().Row(req.user),
                         index.bias(), cand.data(), cand.size(),
                         ctx->scores_.data());
  } else {
    const std::vector<float>& prior = index.cold_start_prior();
    for (size_t j = 0; j < cand.size(); ++j) {
      ctx->scores_[j] = prior[cand[j]];
    }
  }
  ctx->selector_.Select(ctx->scores_.data(), cand.size(), req.k,
                        &ctx->topk_);
  EmitRanked(ctx->scores_.data(), ctx->topk_, &cand, reply);
}

// PUP_HOT: cold-start fallback — ranks the price-level popularity prior,
// honoring exclusions, through the same selector as every other path.
void Server::ServePrior(const ServingIndex& index, const Request& req,
                        Reply* reply, RequestContext* ctx) {
  const std::vector<float>& prior = index.cold_start_prior();
  // NOLINTNEXTLINE(pup-hot-alloc): <= num_items floats, Reserve'd buffer.
  ctx->scores_.assign(prior.begin(), prior.end());
  if (req.exclude != nullptr) {
    for (uint32_t id : *req.exclude) {
      PUP_CHECK_MSG(id < prior.size(), "excluded item id out of range");
      ctx->scores_[id] = kNegInf;
    }
  }
  ctx->selector_.Select(ctx->scores_.data(), prior.size(), req.k,
                        &ctx->topk_);
  EmitRanked(ctx->scores_.data(), ctx->topk_, nullptr, reply);
}

}  // namespace pup::serve
