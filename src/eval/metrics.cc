#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "eval/topk.h"
#include "obs/registry.h"

namespace pup::eval {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

struct Accumulator {
  double recall_sum = 0.0;
  double ndcg_sum = 0.0;
};

// Users per ParallelFor chunk, and per ScoreUsers block. Fixed (not a
// function of the pool size) so the partial-sum combine order — and
// therefore the metrics — are identical for every thread count > 1; a
// single-thread pool coalesces everything into chunk 0, reproducing the
// historical serial accumulation bitwise.
constexpr size_t kUsersPerChunk = 16;

// The requested cutoffs, ascending and distinct: the per-cutoff
// accumulators are indexed by position in this list.
std::vector<int> DistinctCutoffs(const std::vector<int>& cutoffs) {
  std::vector<int> ks(cutoffs);
  for (int k : ks) PUP_CHECK_MSG(k >= 0, "negative ranking cutoff");
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

// One ParallelFor call's working set, reused across its 16-user blocks:
// the block's evaluated users, their score rows back to back, and the
// selection buffers. The bounded-heap selector replaced the historical
// iota + partial_sort over the whole catalog; eval_test pins the bitwise
// ordering parity, tie-break included.
struct BlockScratch {
  std::vector<uint32_t> users;
  std::vector<float> scores;
  std::vector<float> masked;
  TopKSelector selector;
  std::vector<uint32_t> top;
};

// Core per-user update shared by both evaluation modes: `scores` (n
// items) already has non-candidates masked to -inf; `acc[c]` is the
// accumulator of cutoff ks[c]. Selects once, at the largest cutoff: the
// selector's order is a strict total order, so the top min(k, n) for a
// smaller k is the prefix of that selection, and each cutoff's hits and
// DCG are the running sums at its prefix length.
void AccumulateUser(const float* scores, size_t n,
                    const std::vector<uint32_t>& test,
                    const std::vector<int>& ks, BlockScratch* scratch,
                    Accumulator* acc) {
  if (ks.empty()) return;
  scratch->selector.Select(scores, n, static_cast<size_t>(ks.back()),
                           &scratch->top);
  const std::vector<uint32_t>& top = scratch->top;
  size_t pos = 0;
  bool masked_tail = false;  // Only masked items remain past `pos`.
  int hits = 0;
  double dcg = 0.0;
  for (size_t c = 0; c < ks.size(); ++c) {
    const size_t len = std::min(static_cast<size_t>(ks[c]), top.size());
    for (; !masked_tail && pos < len; ++pos) {
      if (scores[top[pos]] == kNegInf) {
        masked_tail = true;
        break;
      }
      if (std::binary_search(test.begin(), test.end(), top[pos])) {
        ++hits;
        dcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
      }
    }
    acc[c].recall_sum += static_cast<double>(hits) / test.size();
    const double idcg = IdealDcg(test.size(), ks[c]);
    acc[c].ndcg_sum += idcg > 0.0 ? dcg / idcg : 0.0;
  }
}

// Per-chunk metric partial sums, one per distinct cutoff.
struct ChunkAccumulator {
  std::vector<Accumulator> acc;
  size_t evaluated = 0;
};

// Combines per-chunk partials in chunk order into the final result.
EvalResult CombineChunks(const std::vector<ChunkAccumulator>& partial,
                         const std::vector<int>& ks) {
  size_t evaluated = 0;
  std::vector<Accumulator> acc(ks.size());
  for (const ChunkAccumulator& ca : partial) {
    evaluated += ca.evaluated;
    for (size_t c = 0; c < ks.size(); ++c) {
      acc[c].recall_sum += ca.acc[c].recall_sum;
      acc[c].ndcg_sum += ca.acc[c].ndcg_sum;
    }
  }
  EvalResult result;
  result.num_users_evaluated = evaluated;
  for (size_t c = 0; c < ks.size(); ++c) {
    TopKMetrics m;
    if (evaluated > 0) {
      m.recall = acc[c].recall_sum / static_cast<double>(evaluated);
      m.ndcg = acc[c].ndcg_sum / static_cast<double>(evaluated);
    }
    result.at[ks[c]] = m;
  }
  return result;
}

// The block loop both evaluators share. Users [0, num_users) run in
// ParallelFor chunks of kUsersPerChunk; within a call, the users that
// `evaluated(u)` admits are scored 16 at a time with one
// Scorer::ScoreUsers call (const and thread-safe by contract) into the
// call's scratch, then `rank(u, row, num_items, scratch, acc)` masks and
// accumulates each user in user order into the accumulators of the
// call's first chunk (chunk 0 for the whole range on a single-thread
// pool).
template <typename Evaluated, typename Rank>
EvalResult RankInBlocks(const Scorer& scorer, size_t num_users,
                        const std::vector<int>& ks, const Evaluated& evaluated,
                        const Rank& rank) {
  const size_t num_chunks = (num_users + kUsersPerChunk - 1) / kUsersPerChunk;
  std::vector<ChunkAccumulator> partial(num_chunks);
  for (ChunkAccumulator& ca : partial) ca.acc.resize(ks.size());
  ParallelFor(0, num_users, kUsersPerChunk, [&](size_t lo, size_t hi) {
    ChunkAccumulator* ca = &partial[lo / kUsersPerChunk];
    BlockScratch s;
    for (size_t b = lo; b < hi; b += kUsersPerChunk) {
      s.users.clear();
      for (size_t u = b; u < std::min(hi, b + kUsersPerChunk); ++u) {
        if (evaluated(u)) s.users.push_back(static_cast<uint32_t>(u));
      }
      if (s.users.empty()) continue;
      {
        PUP_OBS_SCOPED_TIMER("eval/score");
        scorer.ScoreUsers(s.users.data(), s.users.size(), &s.scores);
      }
      const size_t num_items = s.scores.size() / s.users.size();
      PUP_OBS_SCOPED_TIMER("eval/select");
      for (size_t r = 0; r < s.users.size(); ++r) {
        rank(s.users[r], s.scores.data() + r * num_items, num_items, &s,
             ca->acc.data());
      }
      ca->evaluated += s.users.size();
    }
    PUP_OBS_COUNT("eval/users_evaluated", ca->evaluated);
  });
  return CombineChunks(partial, ks);
}

}  // namespace

double Dcg(const std::vector<int>& relevance) {
  double dcg = 0.0;
  for (size_t pos = 0; pos < relevance.size(); ++pos) {
    if (relevance[pos] != 0) {
      dcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
    }
  }
  return dcg;
}

double IdealDcg(size_t num_relevant, int k) {
  size_t n = std::min<size_t>(num_relevant, static_cast<size_t>(k));
  double idcg = 0.0;
  for (size_t pos = 0; pos < n; ++pos) {
    idcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
  }
  return idcg;
}

void Scorer::ScoreUsers(const uint32_t* users, size_t n,
                        std::vector<float>* out) const {
  out->clear();
  std::vector<float> row;
  for (size_t r = 0; r < n; ++r) {
    ScoreItems(users[r], &row);
    PUP_CHECK(r == 0 || out->size() == r * row.size());
    out->insert(out->end(), row.begin(), row.end());
  }
}

EvalResult EvaluateRanking(
    const Scorer& scorer, size_t num_users, size_t num_items,
    const std::vector<std::vector<uint32_t>>& exclude_items,
    const std::vector<std::vector<uint32_t>>& test_items,
    const std::vector<int>& cutoffs) {
  PUP_CHECK_EQ(exclude_items.size(), num_users);
  PUP_CHECK_EQ(test_items.size(), num_users);
  PUP_OBS_SCOPED_TIMER("eval/full_ranking");
  const std::vector<int> ks = DistinctCutoffs(cutoffs);
  auto evaluated = [&](size_t u) { return !test_items[u].empty(); };
  auto rank = [&](uint32_t u, float* row, size_t n, BlockScratch* s,
                  Accumulator* acc) {
    PUP_CHECK_EQ(n, num_items);
    for (uint32_t item : exclude_items[u]) row[item] = kNegInf;
    AccumulateUser(row, n, test_items[u], ks, s, acc);
  };
  return RankInBlocks(scorer, num_users, ks, evaluated, rank);
}

EvalResult EvaluateRankingWithCandidates(
    const Scorer& scorer,
    const std::vector<std::vector<uint32_t>>& candidates,
    const std::vector<std::vector<uint32_t>>& test_items,
    const std::vector<int>& cutoffs) {
  PUP_CHECK_EQ(candidates.size(), test_items.size());
  PUP_OBS_SCOPED_TIMER("eval/candidate_ranking");
  const std::vector<int> ks = DistinctCutoffs(cutoffs);
  auto evaluated = [&](size_t u) {
    return !test_items[u].empty() && !candidates[u].empty();
  };
  auto rank = [&](uint32_t u, const float* row, size_t n, BlockScratch* s,
                  Accumulator* acc) {
    // Candidate lists come from callers (cold-start pools, external
    // input), so each user's list is validated for real before any score
    // is written into the mask: a PUP_DCHECK vanishes in Release and an
    // out-of-range id would be a silent OOB read/write.
    for (uint32_t item : candidates[u]) {
      PUP_CHECK_MSG(item < n, "candidate item id out of range for scorer");
    }
    s->masked.assign(n, kNegInf);
    for (uint32_t item : candidates[u]) s->masked[item] = row[item];
    AccumulateUser(s->masked.data(), n, test_items[u], ks, s, acc);
  };
  return RankInBlocks(scorer, candidates.size(), ks, evaluated, rank);
}

}  // namespace pup::eval
