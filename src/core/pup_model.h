// PUP — Price-aware User Preference modeling (§III), the paper's primary
// contribution.
//
// Two branches, each with its own unified heterogeneous graph encoder
// (user/item/category/price nodes, one tanh graph convolution — eq. 6) and
// a pairwise-interaction FM-style decoder (eq. 3):
//   s_global   = e_uᵀ e_i + e_uᵀ e_p + e_iᵀ e_p   (purchasing power)
//   s_category = e_uᵀ e_c + e_uᵀ e_p + e_cᵀ e_p   (category-local price)
//   s          = s_global + α · s_category
// with the holistic embedding size split between the branches (Table V).
//
// The config switches also express every ablation in the paper:
//   * PUP w/o c,p  — no price/category nodes, dot-product decoder;
//   * PUP w/ c     — category nodes only, decoder u·i + u·c + i·c;
//   * PUP w/ p (= PUP-) — price nodes only, decoder u·i + u·p + i·p;
//   * single-branch vs two-branch, self-loops on/off, dim allocation.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "autograd/tensor.h"
#include "ckpt/checkpointable.h"
#include "graph/hetero_graph.h"
#include "la/row_subset.h"
#include "models/recommender.h"
#include "models/scoring.h"
#include "train/trainer.h"

namespace pup::core {

/// Configuration for the PUP model and its ablations.
struct PupConfig {
  /// Holistic embedding size; split between branches when two_branch.
  size_t embedding_dim = 64;
  /// Dimensions allocated to the category branch (Table V best: 56/8).
  size_t category_branch_dim = 8;
  /// Weight α of the category branch in eq. (3).
  float alpha = 0.5f;

  /// Graph/decoder ablation switches.
  bool use_price = true;
  bool use_category = true;
  /// Two-branch (global + category) vs a single global branch.
  bool two_branch = true;
  /// Self-loops in Â (eq. 5); exposed for the ablation bench.
  bool self_loops = true;
  /// PinSage-style per-node fan-in cap in Â (--max-neighbors); 0 keeps
  /// the full neighborhood (bitwise-golden default). The sampling seed is
  /// train.seed, so runs stay reproducible end to end.
  size_t max_neighbors = 0;

  /// Number of stacked graph convolutions (paper: 1). With more layers
  /// the final representation combines them per layer_combine.
  int num_layers = 1;
  /// How multi-layer outputs are combined: the last layer only, or the
  /// mean of all layers (LightGCN-style smoothing).
  enum class LayerCombine { kLast, kMean };
  LayerCombine layer_combine = LayerCombine::kMean;

  float dropout = 0.1f;
  float init_stddev = 0.05f;
  train::TrainOptions train;

  /// Display name override (e.g. "PUP-"); default derives from switches.
  std::optional<std::string> name;

  /// Full PUP with the paper's preferred 56/8 branch allocation.
  static PupConfig Full();
  /// PUP- of Fig 6: category nodes removed (price only, single branch).
  static PupConfig Minus();
  /// Ablations of Table III.
  static PupConfig WithoutCategoryAndPrice();
  static PupConfig WithCategoryOnly();
  static PupConfig WithPriceOnly();
};

/// The PUP recommender.
class Pup : public models::Recommender,
            public train::BprTrainable,
            public ckpt::Checkpointable {
 public:
  explicit Pup(PupConfig config = PupConfig::Full());

  std::string name() const override;

  void Fit(const data::Dataset& dataset,
           const std::vector<data::Interaction>& train) override;

  void ScoreItems(uint32_t user, std::vector<float>* out) const override;

  const models::DotScorer* ExportScorer() const override {
    return scorer_.initialized() ? &scorer_ : nullptr;
  }

  std::vector<ag::Tensor> Parameters() override;
  BatchGraph ForwardBatch(const std::vector<uint32_t>& users,
                          const std::vector<uint32_t>& pos_items,
                          const std::vector<uint32_t>& neg_items,
                          bool training) override;

  const PupConfig& config() const { return config_; }

  // ckpt::Checkpointable: both branch embedding tables plus the dropout
  // RNG stream.
  std::string checkpoint_key() const override { return "pup"; }
  Status SaveState(ckpt::Writer* writer) const override;
  Status LoadState(const ckpt::Reader& reader) override;

  /// Propagated price-level embeddings of the global branch (the learned
  /// "purchasing power" axis) — used by analysis examples. Only valid
  /// after Fit; empty when use_price is false.
  la::Matrix GlobalPriceEmbeddings() const;

 private:
  struct Branch {
    ag::Tensor emb;  // (num_nodes, branch_dim) raw embeddings.
    size_t dim = 0;
  };

  /// Node rows one propagation computes. layers[l] holds the rows layer l
  /// outputs; layers.back() is the frontier the decoders read, and each
  /// earlier layer adds the one-hop neighborhood of the next (plus, under
  /// kMean, the frontier itself). Under kMean, decode_pos[l] lists where
  /// the frontier's rows sit in layers[l] whenever layers[l] is larger.
  struct Frontier {
    std::vector<la::RowSubset> layers;
    std::vector<std::vector<uint32_t>> decode_pos;
  };

  /// Per-batch row lists, reused across steps (Resize keeps capacity;
  /// lists of disabled node types are never read).
  struct BatchRows {
    std::vector<uint32_t> user, pos, neg, pos_cat, neg_cat, pos_price,
        neg_price;
    void Resize(size_t b);
  };

  /// Rebuilds batch_frontier_ from nodes_ and fills rows_ with the
  /// nodes' positions in the frontier.
  void BuildBatchFrontier();

  /// Propagated representations tanh(Â E) of one branch at the frontier
  /// rows of `frontier`, as a compact tensor (row k = node
  /// frontier.layers.back().ids()[k]); with dropout, keyed by node id,
  /// when `dropout_rng` is non-null. Training steps pass the batch
  /// frontier; export and analysis pass all_rows_.
  ag::Tensor Propagate(const Branch& branch, const Frontier& frontier,
                       Rng* dropout_rng) const;

  /// Decoder for one branch over gathered rows (B, dim).
  /// Global branch: u·i + u·p + i·p (degenerating gracefully when price or
  /// category nodes are disabled); category branch: u·c + u·p + c·p.
  ag::Tensor DecodeGlobal(const ag::Tensor& f,
                          const std::vector<uint32_t>& user_rows,
                          const std::vector<uint32_t>& item_rows,
                          const std::vector<uint32_t>& cat_rows,
                          const std::vector<uint32_t>& price_rows);
  ag::Tensor DecodeCategory(const ag::Tensor& f,
                            const std::vector<uint32_t>& user_rows,
                            const std::vector<uint32_t>& cat_rows,
                            const std::vector<uint32_t>& price_rows);

  /// True when a decoder reads category rows.
  bool DecodesCategories() const {
    return config_.two_branch || (config_.use_category && !config_.use_price);
  }

  PupConfig config_;
  const data::Dataset* dataset_ = nullptr;  // Valid during Fit.
  std::unique_ptr<graph::HeteroGraph> graph_;
  Branch global_;
  Branch category_;  // Unused when !two_branch.
  Rng dropout_rng_{0};
  models::DotScorer scorer_;
  size_t num_users_ = 0;

  Frontier batch_frontier_;  // Rebuilt by every ForwardBatch.
  Frontier all_rows_;        // Every node at every layer.
  BatchRows nodes_;          // The batch's node ids.
  BatchRows rows_;           // Their positions in the batch frontier.
};

}  // namespace pup::core
