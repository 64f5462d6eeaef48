// Tests for frontier propagation (docs/architecture.md): la::RowSubset,
// the row-restricted Spmm kernels and ag::SpmmRows, the counter-based
// ag::Dropout, the capacity-keyed WorkspaceCache, the row-parallel
// optimizers, and PUP's per-step work counters.
//
// The bitwise contract under test: a training step that propagates only
// its batch frontier computes exactly the floats the full-graph
// composition computes at those rows, and the same parameter gradient,
// at every thread count and on every SIMD backend.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd/tensor.h"
#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "graph/hetero_graph.h"
#include "la/kernels.h"
#include "la/row_subset.h"
#include "obs/registry.h"

namespace pup {
namespace {

// Every test leaves the pool and the SIMD backend at their defaults.
class FrontierTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalThreads(0);
    simd::SetActiveIsa(simd::DetectBestIsa());
  }
};

using RowSubsetTest = FrontierTest;
using SpmmRowsTest = FrontierTest;
using FrontierEquivalenceTest = FrontierTest;
using KeyedDropoutTest = FrontierTest;
using AdamTrajectoryTest = FrontierTest;
using WorkCountersTest = FrontierTest;

const std::vector<simd::Isa> kIsas = {simd::Isa::kOff, simd::DetectBestIsa()};

data::Dataset SmallDataset() {
  data::SyntheticConfig config =
      data::SyntheticConfig::YelpLike().Scaled(0.04);
  config.num_interactions = 2000;
  config.seed = 123;
  data::Dataset ds = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&ds, 10, data::QuantizationScheme::kUniform)
          .ok());
  return ds;
}

graph::HeteroGraph BuildGraph(const data::Dataset& ds) {
  return graph::HeteroGraph(ds.num_users, ds.num_items, ds.num_categories,
                            ds.num_price_levels, ds.InteractionPairs(),
                            ds.item_category, ds.item_price_level);
}

// A BPR batch as node ids, laid out as PUP's ForwardBatch lays it out.
struct Batch {
  std::vector<uint32_t> users, pos, neg;  // User and item nodes.
  la::RowSubset frontier;  // Users, items, their categories and prices.
};

Batch DrawBatch(const data::Dataset& ds, const graph::HeteroGraph& g,
                size_t b, uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.frontier.Reset(g.num_nodes());
  for (size_t k = 0; k < b; ++k) {
    const data::Interaction& x =
        ds.interactions[rng.NextBelow(ds.interactions.size())];
    const uint32_t neg = static_cast<uint32_t>(rng.NextBelow(ds.num_items));
    batch.users.push_back(g.UserNode(x.user));
    batch.pos.push_back(g.ItemNode(x.item));
    batch.neg.push_back(g.ItemNode(neg));
    for (uint32_t item : {x.item, neg}) {
      batch.frontier.Insert(g.ItemNode(item));
      batch.frontier.Insert(g.CategoryNode(ds.item_category[item]));
      batch.frontier.Insert(g.PriceNode(ds.item_price_level[item]));
    }
    batch.frontier.Insert(g.UserNode(x.user));
  }
  batch.frontier.Seal();
  return batch;
}

std::vector<uint32_t> Positions(const la::RowSubset& s,
                                const std::vector<uint32_t>& ids) {
  std::vector<uint32_t> out;
  for (uint32_t id : ids) out.push_back(s.Position(id));
  return out;
}

void ExpectRowEqual(const la::Matrix& a, size_t ra, const la::Matrix& b,
                    size_t rb, const std::string& what) {
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.Row(ra), b.Row(rb), a.cols() * sizeof(float)), 0)
      << what << " rows " << ra << " / " << rb;
}

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b,
                        const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t r = 0; r < a.rows(); ++r) ExpectRowEqual(a, r, b, r, what);
}

std::string Config(int threads, simd::Isa isa) {
  return std::string("threads=") + std::to_string(threads) +
         " simd=" + simd::IsaName(isa);
}

// ---------------------------------------------------------------------------
// la::RowSubset
// ---------------------------------------------------------------------------

TEST_F(RowSubsetTest, SealSortsDistinctMembersAndMapsPositions) {
  la::RowSubset s(10);
  for (uint32_t id : {7u, 2u, 7u, 9u, 2u, 0u}) s.Insert(id);
  s.Seal();
  EXPECT_EQ(s.ids(), (std::vector<uint32_t>{0, 2, 7, 9}));
  EXPECT_EQ(s.Position(0), 0u);
  EXPECT_EQ(s.Position(7), 2u);
  EXPECT_EQ(s.Position(9), 3u);
  EXPECT_EQ(s.Position(1), la::RowSubset::kAbsent);

  s.Clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.Position(7), la::RowSubset::kAbsent);
  s.Insert(3);
  s.Seal();
  EXPECT_EQ(s.ids(), (std::vector<uint32_t>{3}));
  EXPECT_EQ(s.universe(), 10u);

  const la::RowSubset all = la::RowSubset::All(4);
  EXPECT_EQ(all.ids(), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(all.Position(2), 2u);
}

TEST_F(RowSubsetTest, InsertNeighborsAddsTheOneHopColumns) {
  // Rows 0 -> {1, 3}, 1 -> {2}, 2 -> {}, 3 -> {0, 3}.
  const la::CsrMatrix a = la::CsrMatrix::FromTriplets(
      4, 4, {{0, 1, 1.0f}, {0, 3, 1.0f}, {1, 2, 1.0f}, {3, 0, 1.0f},
             {3, 3, 1.0f}});
  la::RowSubset of(4);
  of.Insert(0);
  of.Insert(2);
  of.Seal();
  la::RowSubset hop(4);
  hop.InsertNeighbors(a, of);
  hop.Seal();
  EXPECT_EQ(hop.ids(), (std::vector<uint32_t>{1, 3}));
}

// ---------------------------------------------------------------------------
// Row-restricted Spmm kernels
// ---------------------------------------------------------------------------

TEST_F(SpmmRowsTest, ForwardRowsMatchFullSpmmBitwise) {
  const data::Dataset ds = SmallDataset();
  const graph::HeteroGraph g = BuildGraph(ds);
  const la::CsrMatrix& a = g.adjacency();
  const Batch batch = DrawBatch(ds, g, 64, 5);
  la::RowSubset hop(g.num_nodes());
  hop.InsertNeighbors(a, batch.frontier);
  hop.Seal();
  Rng rng(9);
  for (size_t cols : {size_t{1}, size_t{8}, size_t{56}}) {
    const la::Matrix x = la::Matrix::Gaussian(g.num_nodes(), cols, 1.0f, &rng);
    la::Matrix x_hop;
    la::GatherRows(x, hop.ids(), &x_hop);
    // The Spmm family is order-preserving (docs/simd.md): every backend
    // reproduces the scalar path bitwise.
    ThreadPool::SetGlobalThreads(1);
    simd::SetActiveIsa(simd::Isa::kOff);
    la::Matrix scalar;
    la::Spmm(a, x, &scalar);
    for (int threads : {1, 4}) {
      for (simd::Isa isa : kIsas) {
        ThreadPool::SetGlobalThreads(threads);
        simd::SetActiveIsa(isa);
        const std::string what =
            Config(threads, isa) + " cols=" + std::to_string(cols);
        la::Matrix full, rows, rows_compact_in;
        la::Spmm(a, x, &full);
        ExpectBitwiseEqual(full, scalar, what + " vs scalar");
        la::SpmmRows(a, x, nullptr, batch.frontier, &rows);
        la::SpmmRows(a, x_hop, &hop, batch.frontier, &rows_compact_in);
        ASSERT_EQ(rows.rows(), batch.frontier.size());
        for (size_t k = 0; k < batch.frontier.size(); ++k) {
          ExpectRowEqual(rows, k, full, batch.frontier.ids()[k], what);
          ExpectRowEqual(rows_compact_in, k, full, batch.frontier.ids()[k],
                         what + " compact input");
        }
      }
    }
  }
}

TEST_F(SpmmRowsTest, BackwardAddsTheFullTransposedProductBitwise) {
  const data::Dataset ds = SmallDataset();
  const graph::HeteroGraph g = BuildGraph(ds);
  const la::CsrMatrix& at = g.adjacency_transposed();
  const Batch batch = DrawBatch(ds, g, 64, 6);
  la::RowSubset hop(g.num_nodes());
  hop.InsertNeighbors(g.adjacency(), batch.frontier);
  hop.Seal();
  Rng rng(10);
  const size_t cols = 24;
  const la::Matrix grad =
      la::Matrix::Gaussian(batch.frontier.size(), cols, 1.0f, &rng);
  la::Matrix grad_full(g.num_nodes(), cols);  // Zero outside the frontier.
  la::ScatterAddRows(grad, batch.frontier.ids(), &grad_full);
  const la::Matrix base = la::Matrix::Gaussian(g.num_nodes(), cols, 1.0f, &rng);
  for (int threads : {1, 4}) {
    for (simd::Isa isa : kIsas) {
      ThreadPool::SetGlobalThreads(threads);
      simd::SetActiveIsa(isa);
      const std::string what = Config(threads, isa);
      la::Matrix product;
      la::Spmm(at, grad_full, &product);
      la::Matrix expected = base;
      la::Axpy(1.0f, product, &expected);

      la::Matrix actual = base;
      la::SpmmRowsTransposedAdd(at, grad, batch.frontier, nullptr, &actual);
      ExpectBitwiseEqual(actual, expected, what);

      la::Matrix compact;
      la::GatherRows(base, hop.ids(), &compact);
      la::SpmmRowsTransposedAdd(at, grad, batch.frontier, &hop, &compact);
      for (size_t k = 0; k < hop.size(); ++k) {
        ExpectRowEqual(compact, k, expected, hop.ids()[k], what + " compact");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (a) The restricted op composition equals the full composition
// ---------------------------------------------------------------------------

// One PUP-shaped branch step over the batch: propagate, tanh, keyed
// dropout, gather the decoded rows, fused BPR head. `restricted` runs it
// on the batch frontier; otherwise over the full table, as the
// historical full-graph path did. Returns the propagated tensor.
ag::Tensor BranchStep(const graph::HeteroGraph& g, const Batch& batch,
                      const ag::Tensor& emb, bool restricted, int layers,
                      const std::vector<la::RowSubset>& hops,
                      ag::Tensor* loss) {
  const la::CsrMatrix* a = &g.adjacency();
  const la::CsrMatrix* at = &g.adjacency_transposed();
  Rng rng(17);
  ag::Tensor f = emb;
  if (restricted) {
    const la::RowSubset* in = nullptr;
    for (int l = 0; l < layers; ++l) {
      const la::RowSubset* out =
          l + 1 == layers ? &batch.frontier : &hops[static_cast<size_t>(l)];
      f = ag::Tanh(ag::SpmmRows(a, at, f, out, in));
      in = out;
    }
    f = ag::Dropout(f, 0.2f, &rng, /*training=*/true, batch.frontier.ids());
    *loss = ag::RowDotSigmoidBpr(
        ag::Gather(f, Positions(batch.frontier, batch.users)),
        ag::Gather(f, Positions(batch.frontier, batch.pos)),
        ag::Gather(f, Positions(batch.frontier, batch.neg)));
  } else {
    for (int l = 0; l < layers; ++l) f = ag::Tanh(ag::Spmm(a, at, f));
    f = ag::Dropout(f, 0.2f, &rng, /*training=*/true);
    *loss = ag::RowDotSigmoidBpr(ag::Gather(f, batch.users),
                                 ag::Gather(f, batch.pos),
                                 ag::Gather(f, batch.neg));
  }
  return f;
}

void ExpectRestrictedMatchesFull(int layers) {
  const data::Dataset ds = SmallDataset();
  const graph::HeteroGraph g = BuildGraph(ds);
  const Batch batch = DrawBatch(ds, g, 48, 7);
  // Layer l of a two-layer stack must hold every row layer l+1 reads.
  std::vector<la::RowSubset> hops;
  if (layers == 2) {
    hops.emplace_back(g.num_nodes());
    hops[0].InsertNeighbors(g.adjacency(), batch.frontier);
    hops[0].Seal();
  }
  Rng init(3);
  const la::Matrix table = la::Matrix::Gaussian(g.num_nodes(), 20, 0.5f, &init);
  for (int threads : {1, 4}) {
    for (simd::Isa isa : kIsas) {
      ThreadPool::SetGlobalThreads(threads);
      simd::SetActiveIsa(isa);
      const std::string what =
          Config(threads, isa) + " layers=" + std::to_string(layers);
      ag::Tensor emb_r = ag::Param(table), emb_f = ag::Param(table);
      ag::Tensor loss_r, loss_f;
      const ag::Tensor fr =
          BranchStep(g, batch, emb_r, true, layers, hops, &loss_r);
      const ag::Tensor ff =
          BranchStep(g, batch, emb_f, false, layers, hops, &loss_f);
      ASSERT_EQ(fr->value.rows(), batch.frontier.size());
      for (size_t k = 0; k < batch.frontier.size(); ++k) {
        ExpectRowEqual(fr->value, k, ff->value, batch.frontier.ids()[k],
                       what + " forward");
      }
      EXPECT_EQ(loss_r->value(0, 0), loss_f->value(0, 0)) << what;
      ag::Backward(loss_r);
      ag::Backward(loss_f);
      ExpectBitwiseEqual(emb_r->grad, emb_f->grad, what + " gradient");
    }
  }
}

TEST_F(FrontierEquivalenceTest, OneLayerMatchesFullCompositionBitwise) {
  ExpectRestrictedMatchesFull(1);
}

TEST_F(FrontierEquivalenceTest, TwoLayersMatchFullCompositionBitwise) {
  ExpectRestrictedMatchesFull(2);
}

// ---------------------------------------------------------------------------
// (b) Keyed dropout
// ---------------------------------------------------------------------------

TEST_F(KeyedDropoutTest, NodeMaskIsTheSameInsideAFrontierAndTheFullTable) {
  const data::Dataset ds = SmallDataset();
  const graph::HeteroGraph g = BuildGraph(ds);
  const Batch batch = DrawBatch(ds, g, 32, 8);
  const size_t cols = 40;
  const ag::Tensor full = ag::Constant(la::Matrix(g.num_nodes(), cols, 1.0f));
  const ag::Tensor compact =
      ag::Constant(la::Matrix(batch.frontier.size(), cols, 1.0f));
  ThreadPool::SetGlobalThreads(1);
  Rng reference_rng(44);
  const la::Matrix reference =
      ag::Dropout(full, 0.3f, &reference_rng, true)->value;
  for (int threads : {1, 2, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    Rng rf(44), rc(44);
    const la::Matrix f = ag::Dropout(full, 0.3f, &rf, true)->value;
    const la::Matrix c =
        ag::Dropout(compact, 0.3f, &rc, true, batch.frontier.ids())->value;
    ExpectBitwiseEqual(f, reference, "threads=" + std::to_string(threads));
    for (size_t k = 0; k < batch.frontier.size(); ++k) {
      ExpectRowEqual(c, k, reference, batch.frontier.ids()[k],
                     "frontier threads=" + std::to_string(threads));
    }
    // One key per call: both streams advanced by exactly one draw.
    Rng expected(44);
    expected.NextU64();
    EXPECT_EQ(rf.SaveState(), expected.SaveState());
    EXPECT_EQ(rc.SaveState(), expected.SaveState());
  }
}

TEST_F(KeyedDropoutTest, DropRateIsWithinBinomialToleranceOfP) {
  const size_t rows = 2048, cols = 64;
  const double n = static_cast<double>(rows * cols);
  const ag::Tensor x = ag::Constant(la::Matrix(rows, cols, 1.0f));
  Rng rng(45);
  for (float p : {0.1f, 0.3f, 0.5f}) {
    const la::Matrix y = ag::Dropout(x, p, &rng, true)->value;
    size_t dropped = 0;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        const float v = y(r, c);
        if (v == 0.0f) {
          ++dropped;
        } else {
          EXPECT_EQ(v, 1.0f / (1.0f - p));
        }
      }
    }
    const double rate = static_cast<double>(dropped) / n;
    const double sigma = std::sqrt(p * (1.0 - p) / n);
    EXPECT_NEAR(rate, p, 5.0 * sigma) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// (c) Adam golden trajectory of a short PUP run
// ---------------------------------------------------------------------------

// Position-weighted sum, so a permutation of entries changes it too.
double Checksum(const la::Matrix& m) {
  double s = 0.0;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      s += static_cast<double>(m(r, c)) *
           static_cast<double>(1 + (r * m.cols() + c) % 7);
    }
  }
  return s;
}

// Trains PUP for kEpochs epochs of 8 steps, snapshotting after every
// epoch, and returns the checksums of both embedding tables from each
// snapshot: the parameter trajectory sampled every 8 Adam steps.
std::vector<double> PupTrajectory(int threads) {
  constexpr int kEpochs = 4;
  ThreadPool::SetGlobalThreads(threads);
  simd::SetActiveIsa(simd::Isa::kOff);
  const data::Dataset ds = SmallDataset();
  const std::string dir = testing::TempDir() + "/pup_frontier_trajectory_t" +
                          std::to_string(threads);
  std::filesystem::remove_all(dir);
  core::PupConfig pc = core::PupConfig::Full();
  pc.embedding_dim = 16;
  pc.category_branch_dim = 4;
  pc.train.epochs = kEpochs;
  pc.train.batch_size = 256;
  pc.train.seed = 42;
  pc.train.lr_decay_at = {};
  pc.train.checkpoint.directory = dir;
  pc.train.checkpoint.save_every = 1;
  EXPECT_EQ((ds.interactions.size() + pc.train.batch_size - 1) /
                pc.train.batch_size,
            8u);
  core::Pup model(pc);
  model.Fit(ds, ds.interactions);
  std::vector<double> sums;
  for (int e = 1; e <= kEpochs; ++e) {
    char name[32];
    std::snprintf(name, sizeof(name), "/ckpt-%06d.pupc", e);
    Result<ckpt::Reader> reader = ckpt::Reader::Open(dir + name);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return sums;
    for (const char* section : {"model/global_emb", "model/category_emb"}) {
      Result<la::Matrix> m = reader->GetMatrix(section);
      EXPECT_TRUE(m.ok()) << section;
      if (m.ok()) sums.push_back(Checksum(*m));
    }
  }
  std::filesystem::remove_all(dir);
  return sums;
}

TEST_F(AdamTrajectoryTest, ChecksumsEvery8StepsAreGoldenAtOneAndFourThreads) {
  // Captured at --simd=off (the scalar golden path) and one thread.
  const std::vector<double> golden = {
      45.789478894934291, -13.112587413808797, 138.32950331718894,
      -32.010300737485522, 243.39405486237956, -49.956769462005468,
      276.18990685063181, -61.593807978846598};
  const std::vector<double> t1 = PupTrajectory(1);
  const std::vector<double> t4 = PupTrajectory(4);
  ASSERT_EQ(t1.size(), golden.size());
  ASSERT_EQ(t4.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(t1[i], golden[i]) << "sample " << i;
    EXPECT_EQ(t4[i], t1[i]) << "sample " << i;
  }
}

TEST_F(AdamTrajectoryTest, RowParallelOptimizersAreThreadInvariant) {
  Rng rng(50);
  const la::Matrix value = la::Matrix::Gaussian(3000, 56, 0.1f, &rng);
  const la::Matrix grad = la::Matrix::Gaussian(3000, 56, 0.1f, &rng);
  auto run = [&](int threads, bool adam) {
    ThreadPool::SetGlobalThreads(threads);
    ag::Tensor p = ag::Param(value);
    p->EnsureGrad();
    std::unique_ptr<ag::Optimizer> opt;
    if (adam) {
      opt = std::make_unique<ag::Adam>(
          std::vector<ag::Tensor>{p},
          ag::Adam::Options{.learning_rate = 1e-2f, .weight_decay = 1e-3f});
    } else {
      opt = std::make_unique<ag::Sgd>(std::vector<ag::Tensor>{p}, 0.1f, 1e-3f);
    }
    for (int step = 0; step < 3; ++step) {
      p->grad = grad;
      opt->Step();
    }
    return p->value;
  };
  for (bool adam : {false, true}) {
    const la::Matrix serial = run(1, adam);
    ExpectBitwiseEqual(run(4, adam), serial, adam ? "adam" : "sgd");
  }
}

// ---------------------------------------------------------------------------
// Capacity-keyed workspace
// ---------------------------------------------------------------------------

TEST(WorkspaceCacheCapacityTest, BufferReleasedAtMoreRowsServesFewerAsAHit) {
  ag::WorkspaceCache cache;
  cache.Release(cache.Acquire(100, 24));
  EXPECT_EQ(cache.misses(), 1u);
  const la::AllocStats before = la::MatrixAllocStats();
  la::Matrix m = cache.Acquire(60, 24);
  EXPECT_EQ(la::MatrixAllocStats().count, before.count);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(m.rows(), 60u);
  EXPECT_EQ(m.cols(), 24u);
  cache.Release(std::move(m));
  // Same rows again, then a different column count: only the latter
  // misses.
  cache.Release(cache.Acquire(100, 24));
  EXPECT_EQ(cache.hits(), 2u);
  cache.Release(cache.Acquire(10, 8));
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(WorkspaceCacheCapacityTest, MissGrowsTheLargestPooledBuffer) {
  ag::WorkspaceCache cache;
  cache.Release(cache.Acquire(10, 16));
  cache.Release(cache.Acquire(50, 16));  // Miss: grows the pooled buffer.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.pooled(), 1u);
  // Two concurrent requests need two buffers; the smaller takes the best
  // fit, so the larger still finds one that holds it.
  la::Matrix a = cache.Acquire(20, 16);
  la::Matrix b = cache.Acquire(40, 16);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  cache.Release(std::move(a));
  cache.Release(std::move(b));
  EXPECT_EQ(cache.pooled(), 2u);
  la::Matrix c = cache.Acquire(20, 16);
  la::Matrix d = cache.Acquire(50, 16);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

// ---------------------------------------------------------------------------
// Deterministic work counters
// ---------------------------------------------------------------------------

// 5 users (user 4 has no interactions), 6 items in 2 categories and 3
// price levels; every item is some user's positive.
data::Dataset TinyDataset() {
  data::Dataset ds;
  ds.num_users = 5;
  ds.num_items = 6;
  ds.num_categories = 2;
  ds.num_price_levels = 3;
  ds.item_category = {0, 0, 0, 1, 1, 1};
  ds.item_price = {1.0f, 2.0f, 3.0f, 1.0f, 2.0f, 3.0f};
  ds.item_price_level = {0, 1, 2, 0, 1, 2};
  const std::pair<uint32_t, uint32_t> pairs[] = {
      {0, 0}, {0, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 0}, {3, 5}};
  int64_t t = 0;
  for (const auto& [u, i] : pairs) ds.interactions.push_back({u, i, t++});
  return ds;
}

TEST_F(WorkCountersTest, PinsPropagatedRowsAndSpmmNnzForAFixedBatch) {
  const data::Dataset ds = TinyDataset();
  // 16 nodes; Â has 16 user-item, 12 item-category, 12 item-price and
  // 16 self-loop entries.
  const graph::HeteroGraph g = BuildGraph(ds);
  ASSERT_EQ(g.num_nodes(), 16u);
  ASSERT_EQ(g.adjacency().nnz(), 56u);
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* rows = reg.GetCounter("train/propagated_rows");
  obs::Counter* nnz = reg.GetCounter("train/spmm_nnz");
  for (int layers : {1, 2}) {
    core::PupConfig pc = core::PupConfig::Full();
    pc.embedding_dim = 8;
    pc.category_branch_dim = 2;
    pc.num_layers = layers;
    pc.train.epochs = 1;
    pc.train.batch_size = 64;  // One step holds all 8 triples.
    core::Pup model(pc);
    const uint64_t rows0 = rows->Get(), nnz0 = nnz->Get();
    model.Fit(ds, ds.interactions);
    // The batch frontier is every node but the idle user 4, whose row
    // holds only its self-loop: 15 rows and 56 - 1 entries, counted
    // forward plus backward. User 4 is nobody's neighbor, so the one-hop
    // layer of a two-layer stack is the same 15 rows.
    EXPECT_EQ(rows->Get() - rows0, 15u * static_cast<uint64_t>(layers));
    EXPECT_EQ(nnz->Get() - nnz0, 110u * static_cast<uint64_t>(layers));
  }
}

}  // namespace
}  // namespace pup
