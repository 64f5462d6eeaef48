#include "core/pup_model.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/check.h"
#include "la/kernels.h"
#include "obs/registry.h"

namespace pup::core {

PupConfig PupConfig::Full() {
  PupConfig c;
  c.embedding_dim = 64;
  c.category_branch_dim = 8;
  c.name = "PUP";
  return c;
}

PupConfig PupConfig::Minus() {
  PupConfig c;
  c.use_category = false;
  c.two_branch = false;
  c.name = "PUP-";
  return c;
}

PupConfig PupConfig::WithoutCategoryAndPrice() {
  PupConfig c;
  c.use_price = false;
  c.use_category = false;
  c.two_branch = false;
  c.name = "PUP w/o c,p";
  return c;
}

PupConfig PupConfig::WithCategoryOnly() {
  PupConfig c;
  c.use_price = false;
  c.two_branch = false;
  c.name = "PUP w/ c";
  return c;
}

PupConfig PupConfig::WithPriceOnly() {
  PupConfig c;
  c.use_category = false;
  c.two_branch = false;
  c.name = "PUP w/ p";
  return c;
}

Pup::Pup(PupConfig config) : config_(std::move(config)) {
  PUP_CHECK_GT(config_.embedding_dim, 0u);
  PUP_CHECK_GT(config_.num_layers, 0);
  if (config_.two_branch) {
    PUP_CHECK_MSG(config_.use_price && config_.use_category,
                  "the category branch needs price and category nodes");
    PUP_CHECK_LT(config_.category_branch_dim, config_.embedding_dim);
    PUP_CHECK_GT(config_.category_branch_dim, 0u);
  }
}

std::string Pup::name() const {
  if (config_.name.has_value()) return *config_.name;
  return config_.two_branch ? "PUP" : "PUP(single)";
}

void Pup::Fit(const data::Dataset& dataset,
              const std::vector<data::Interaction>& train) {
  if (config_.use_price) {
    PUP_CHECK_MSG(!dataset.item_price_level.empty(),
                  "PUP needs quantized price levels");
  }
  Rng rng(config_.train.seed);
  dropout_rng_ = rng.Fork();
  num_users_ = dataset.num_users;

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(train.size());
  for (const data::Interaction& x : train) pairs.emplace_back(x.user, x.item);

  graph::HeteroGraphOptions gopts;
  gopts.use_category_nodes = config_.use_category;
  gopts.use_price_nodes = config_.use_price;
  gopts.add_self_loops = config_.self_loops;
  gopts.max_neighbors = config_.max_neighbors;
  gopts.neighbor_seed = config_.train.seed;
  graph_ = std::make_unique<graph::HeteroGraph>(
      dataset.num_users, dataset.num_items, dataset.num_categories,
      dataset.num_price_levels, pairs, dataset.item_category,
      dataset.item_price_level.empty()
          ? std::vector<uint32_t>(dataset.num_items, 0)
          : dataset.item_price_level,
      gopts);

  global_.dim = config_.two_branch
                    ? config_.embedding_dim - config_.category_branch_dim
                    : config_.embedding_dim;
  global_.emb = ag::Param(la::Matrix::Gaussian(
      graph_->num_nodes(), global_.dim, config_.init_stddev, &rng));
  if (config_.two_branch) {
    category_.dim = config_.category_branch_dim;
    category_.emb = ag::Param(la::Matrix::Gaussian(
        graph_->num_nodes(), category_.dim, config_.init_stddev, &rng));
  }

  const size_t num_layers = static_cast<size_t>(config_.num_layers);
  batch_frontier_.layers.assign(num_layers, la::RowSubset(graph_->num_nodes()));
  batch_frontier_.decode_pos.assign(num_layers, {});
  all_rows_.layers.assign(num_layers, la::RowSubset::All(graph_->num_nodes()));

  dataset_ = &dataset;
  train::TrainBpr(this, dataset, train, config_.train);

  // --- Inference cache: fold eq. (3) into user/item vectors + bias. ---
  //   s(u,i) = f_uᵍ·(f_iᵍ + f_pᵍ) + f_iᵍ·f_pᵍ
  //          + α [ f_uᶜ·(f_cᶜ + f_pᶜ) + f_cᶜ·f_pᶜ ]
  // (branch superscripts: each branch has independent embeddings).
  // Over all rows, a compact propagation is the full table: row k is
  // node k.
  ag::Tensor fg = Propagate(global_, all_rows_, /*dropout_rng=*/nullptr);
  const la::Matrix& g = fg->value;
  const bool two = config_.two_branch;
  la::Matrix fc_matrix;
  if (two) {
    fc_matrix = Propagate(category_, all_rows_, nullptr)->value;
  }
  const size_t d_total = global_.dim + (two ? category_.dim : 0);
  la::Matrix user_vecs(dataset.num_users, d_total);
  la::Matrix item_vecs(dataset.num_items, d_total);
  std::vector<float> item_bias(dataset.num_items, 0.0f);

  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    const float* src = g.Row(graph_->UserNode(u));
    std::copy(src, src + global_.dim, user_vecs.Row(u));
    if (two) {
      const float* srcc = fc_matrix.Row(graph_->UserNode(u));
      std::copy(srcc, srcc + category_.dim, user_vecs.Row(u) + global_.dim);
    }
  }
  for (uint32_t i = 0; i < dataset.num_items; ++i) {
    float* dst = item_vecs.Row(i);
    const float* fi = g.Row(graph_->ItemNode(i));
    const float* fp = config_.use_price
                          ? g.Row(graph_->PriceNode(
                                dataset.item_price_level[i]))
                          : nullptr;
    const float* fc = config_.use_category
                          ? g.Row(graph_->CategoryNode(dataset.item_category[i]))
                          : nullptr;
    float bias = 0.0f;
    for (size_t j = 0; j < global_.dim; ++j) {
      float v = fi[j];
      if (fp != nullptr) {
        v += fp[j];
        bias += fi[j] * fp[j];
      } else if (fc != nullptr && !two) {
        // w/ c ablation: u·i + u·c + i·c.
        v += fc[j];
        bias += fi[j] * fc[j];
      }
      dst[j] = v;
    }
    if (two) {
      const float* cc =
          fc_matrix.Row(graph_->CategoryNode(dataset.item_category[i]));
      const float* cp =
          fc_matrix.Row(graph_->PriceNode(dataset.item_price_level[i]));
      for (size_t j = 0; j < category_.dim; ++j) {
        dst[global_.dim + j] = config_.alpha * (cc[j] + cp[j]);
        bias += config_.alpha * cc[j] * cp[j];
      }
    }
    item_bias[i] = bias;
  }
  scorer_ = models::DotScorer(std::move(user_vecs), std::move(item_vecs),
                              std::move(item_bias));
  dataset_ = nullptr;
}

void Pup::BatchRows::Resize(size_t b) {
  // NOLINTNEXTLINE(pup-hot-transitive): member scratch sized to the batch; capacity is retained across steps.
  user.resize(b);
  pos.resize(b);        // NOLINT(pup-hot-transitive): see above.
  neg.resize(b);        // NOLINT(pup-hot-transitive): see above.
  pos_cat.resize(b);    // NOLINT(pup-hot-transitive): see above.
  neg_cat.resize(b);    // NOLINT(pup-hot-transitive): see above.
  pos_price.resize(b);  // NOLINT(pup-hot-transitive): see above.
  neg_price.resize(b);  // NOLINT(pup-hot-transitive): see above.
}

void Pup::BuildBatchFrontier() {
  std::vector<la::RowSubset>& layers = batch_frontier_.layers;
  la::RowSubset& top = layers.back();
  const size_t b = nodes_.user.size();
  const bool cats = DecodesCategories();
  top.Clear();
  for (size_t k = 0; k < b; ++k) {
    top.Insert(nodes_.user[k]);
    top.Insert(nodes_.pos[k]);
    top.Insert(nodes_.neg[k]);
    if (cats) {
      top.Insert(nodes_.pos_cat[k]);
      top.Insert(nodes_.neg_cat[k]);
    }
    if (config_.use_price) {
      top.Insert(nodes_.pos_price[k]);
      top.Insert(nodes_.neg_price[k]);
    }
  }
  top.Seal();
  // One hop per earlier layer: layer l must hold every row layer l+1
  // reads, and under kMean the frontier rows it contributes to the mean.
  const bool mean = config_.layer_combine == PupConfig::LayerCombine::kMean;
  for (size_t l = layers.size() - 1; l-- > 0;) {
    la::RowSubset& s = layers[l];
    s.Clear();
    s.InsertNeighbors(graph_->adjacency(), layers[l + 1]);
    if (mean) {
      for (uint32_t id : top.ids()) s.Insert(id);
    }
    s.Seal();
    if (mean) {
      std::vector<uint32_t>& at = batch_frontier_.decode_pos[l];
      // NOLINTNEXTLINE(pup-hot-transitive): capacity retained across steps.
      at.resize(top.size());
      for (size_t k = 0; k < top.size(); ++k) {
        at[k] = s.Position(top.ids()[k]);
      }
    }
  }

  const auto to_rows = [&](const std::vector<uint32_t>& ids,
                           std::vector<uint32_t>* out) {
    for (size_t k = 0; k < b; ++k) (*out)[k] = top.Position(ids[k]);
  };
  to_rows(nodes_.user, &rows_.user);
  to_rows(nodes_.pos, &rows_.pos);
  to_rows(nodes_.neg, &rows_.neg);
  if (cats) {
    to_rows(nodes_.pos_cat, &rows_.pos_cat);
    to_rows(nodes_.neg_cat, &rows_.neg_cat);
  }
  if (config_.use_price) {
    to_rows(nodes_.pos_price, &rows_.pos_price);
    to_rows(nodes_.neg_price, &rows_.neg_price);
  }
}

ag::Tensor Pup::Propagate(const Branch& branch, const Frontier& frontier,
                          Rng* dropout_rng) const {
  const std::vector<la::RowSubset>& layers = frontier.layers;
  const la::RowSubset& top = layers.back();
  const bool mean = config_.layer_combine == PupConfig::LayerCombine::kMean &&
                    layers.size() > 1;
  ag::Tensor f = branch.emb;
  ag::Tensor sum;
  const la::RowSubset* input_rows = nullptr;  // Layer 0 reads the table.
  for (size_t l = 0; l < layers.size(); ++l) {
    f = ag::Tanh(ag::SpmmRows(&graph_->adjacency(),
                              &graph_->adjacency_transposed(), f, &layers[l],
                              input_rows));
    input_rows = &layers[l];
    if (mean) {
      // Layer l at the frontier rows; a layer of the frontier's size
      // holds exactly those rows, in order.
      ag::Tensor at_top = layers[l].size() == top.size()
                              ? f
                              : ag::Gather(f, frontier.decode_pos[l]);
      sum = sum == nullptr ? at_top : ag::Add(sum, at_top);
    }
  }
  ag::Tensor out = f;
  if (mean) out = ag::Scale(sum, 1.0f / static_cast<float>(layers.size()));
  return ag::Dropout(out, config_.dropout, dropout_rng,
                     /*training=*/dropout_rng != nullptr, top.ids());
}

ag::Tensor Pup::DecodeGlobal(const ag::Tensor& f,
                             const std::vector<uint32_t>& user_rows,
                             const std::vector<uint32_t>& item_rows,
                             const std::vector<uint32_t>& cat_rows,
                             const std::vector<uint32_t>& price_rows) {
  ag::Tensor fu = ag::Gather(f, user_rows);
  ag::Tensor fi = ag::Gather(f, item_rows);
  ag::Tensor s = ag::RowDot(fu, fi);
  if (config_.use_price) {
    ag::Tensor fp = ag::Gather(f, price_rows);
    s = ag::Add(s, ag::Add(ag::RowDot(fu, fp), ag::RowDot(fi, fp)));
  } else if (config_.use_category && !config_.two_branch) {
    ag::Tensor fc = ag::Gather(f, cat_rows);
    s = ag::Add(s, ag::Add(ag::RowDot(fu, fc), ag::RowDot(fi, fc)));
  }
  return s;
}

ag::Tensor Pup::DecodeCategory(const ag::Tensor& f,
                               const std::vector<uint32_t>& user_rows,
                               const std::vector<uint32_t>& cat_rows,
                               const std::vector<uint32_t>& price_rows) {
  ag::Tensor fu = ag::Gather(f, user_rows);
  ag::Tensor fc = ag::Gather(f, cat_rows);
  ag::Tensor fp = ag::Gather(f, price_rows);
  return ag::Add(ag::RowDot(fu, fc),
                 ag::Add(ag::RowDot(fu, fp), ag::RowDot(fc, fp)));
}

void Pup::ScoreItems(uint32_t user, std::vector<float>* out) const {
  scorer_.ScoreItems(user, out);
}

std::vector<ag::Tensor> Pup::Parameters() {
  std::vector<ag::Tensor> params = {global_.emb};
  if (config_.two_branch) params.push_back(category_.emb);
  return params;
}

train::BprTrainable::BatchGraph Pup::ForwardBatch(
    const std::vector<uint32_t>& users, const std::vector<uint32_t>& pos_items,
    const std::vector<uint32_t>& neg_items, bool training) {
  PUP_CHECK(dataset_ != nullptr);
  const size_t b = users.size();
  nodes_.Resize(b);
  rows_.Resize(b);
  for (size_t k = 0; k < b; ++k) {
    nodes_.user[k] = graph_->UserNode(users[k]);
    nodes_.pos[k] = graph_->ItemNode(pos_items[k]);
    nodes_.neg[k] = graph_->ItemNode(neg_items[k]);
    if (config_.use_category) {
      nodes_.pos_cat[k] =
          graph_->CategoryNode(dataset_->item_category[pos_items[k]]);
      nodes_.neg_cat[k] =
          graph_->CategoryNode(dataset_->item_category[neg_items[k]]);
    }
    if (config_.use_price) {
      nodes_.pos_price[k] =
          graph_->PriceNode(dataset_->item_price_level[pos_items[k]]);
      nodes_.neg_price[k] =
          graph_->PriceNode(dataset_->item_price_level[neg_items[k]]);
    }
  }
  BuildBatchFrontier();
  if (training) {
    // Deterministic work counters: rows one branch propagates this step
    // and the adjacency entries its Spmm multiplies, forward plus
    // backward (the backward reaches the same entries through Aᵀ).
    uint64_t rows = 0, nnz = 0;
    for (const la::RowSubset& layer : batch_frontier_.layers) {
      rows += layer.size();
      for (uint32_t id : layer.ids()) nnz += graph_->adjacency().RowNnz(id);
    }
    PUP_OBS_COUNT("train/propagated_rows", rows);
    PUP_OBS_COUNT("train/spmm_nnz", 2 * nnz);
  }

  Rng* rng = training ? &dropout_rng_ : nullptr;
  ag::Tensor fg = Propagate(global_, batch_frontier_, rng);
  ag::Tensor pos = DecodeGlobal(fg, rows_.user, rows_.pos, rows_.pos_cat,
                                rows_.pos_price);
  ag::Tensor neg = DecodeGlobal(fg, rows_.user, rows_.neg, rows_.neg_cat,
                                rows_.neg_price);
  if (config_.two_branch) {
    ag::Tensor fc = Propagate(category_, batch_frontier_, rng);
    pos = ag::Add(pos, ag::Scale(DecodeCategory(fc, rows_.user,
                                                rows_.pos_cat,
                                                rows_.pos_price),
                                 config_.alpha));
    neg = ag::Add(neg, ag::Scale(DecodeCategory(fc, rows_.user,
                                                rows_.neg_cat,
                                                rows_.neg_price),
                                 config_.alpha));
  }

  BatchGraph batch;
  batch.pos_scores = pos;
  batch.neg_scores = neg;
  batch.l2_terms = {ag::Gather(global_.emb, nodes_.user),
                    ag::Gather(global_.emb, nodes_.pos),
                    ag::Gather(global_.emb, nodes_.neg)};
  if (config_.two_branch) {
    batch.l2_terms.push_back(ag::Gather(category_.emb, nodes_.user));  // NOLINT(pup-hot-transitive): <= #fields terms.
    batch.l2_terms.push_back(ag::Gather(category_.emb, nodes_.pos_cat));  // NOLINT(pup-hot-transitive): <= #fields terms.
    batch.l2_terms.push_back(ag::Gather(category_.emb, nodes_.pos_price));  // NOLINT(pup-hot-transitive): <= #fields terms.
  }
  return batch;
}

Status Pup::SaveState(ckpt::Writer* writer) const {
  if (global_.emb == nullptr) {
    return Status::FailedPrecondition("PUP is not initialized");
  }
  std::vector<std::pair<std::string, const la::Matrix*>> entries = {
      {"model/global_emb", &global_.emb->value}};
  if (config_.two_branch) {
    entries.emplace_back("model/category_emb", &category_.emb->value);
  }
  ckpt::SaveMatrixSections(entries, writer);
  writer->AddRng("model/dropout_rng", dropout_rng_.SaveState());
  return Status::OK();
}

Status Pup::LoadState(const ckpt::Reader& reader) {
  if (global_.emb == nullptr) {
    return Status::FailedPrecondition("PUP is not initialized");
  }
  std::vector<std::pair<std::string, la::Matrix*>> entries = {
      {"model/global_emb", &global_.emb->value}};
  if (config_.two_branch) {
    entries.emplace_back("model/category_emb", &category_.emb->value);
  }
  PUP_ASSIGN_OR_RETURN(RngState rng, reader.GetRng("model/dropout_rng"));
  PUP_RETURN_NOT_OK(ckpt::LoadMatrixSections(reader, entries));
  dropout_rng_.RestoreState(rng);
  return Status::OK();
}

la::Matrix Pup::GlobalPriceEmbeddings() const {
  if (!config_.use_price || graph_ == nullptr) return {};
  const la::Matrix propagated =
      Propagate(global_, all_rows_, /*dropout_rng=*/nullptr)->value;
  la::Matrix out(graph_->num_price_levels(), global_.dim);
  for (uint32_t p = 0; p < graph_->num_price_levels(); ++p) {
    const float* src = propagated.Row(graph_->PriceNode(p));
    std::copy(src, src + global_.dim, out.Row(p));
  }
  return out;
}

}  // namespace pup::core
