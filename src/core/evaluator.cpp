#include "core/evaluator.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "sampling/neighbor_sampler.hpp"
#include "tensor/autograd.hpp"

namespace splpg::core {

using graph::NodeId;
using sampling::NodePair;

namespace {

constexpr std::size_t kValPos = 0;
constexpr std::size_t kValNeg = 1;
constexpr std::size_t kTestPos = 2;
constexpr std::size_t kTestNeg = 3;

std::vector<NodePair> to_pairs(std::span<const graph::Edge> edges) {
  std::vector<NodePair> pairs;
  pairs.reserve(edges.size());
  for (const auto& [u, v] : edges) pairs.push_back({u, v});
  return pairs;
}

}  // namespace

Evaluation::Evaluation(const Evaluator& evaluator, const nn::LinkPredictionModel& model,
                       std::vector<std::vector<NodePair>> lists)
    : evaluator_(&evaluator), model_(&model), lists_(std::move(lists)) {
  const std::size_t chunk_size = evaluator.chunk_size_;
  scores_.reserve(lists_.size());
  for (std::size_t list = 0; list < lists_.size(); ++list) {
    scores_.emplace_back(lists_[list].size());
    const std::size_t num_chunks = (lists_[list].size() + chunk_size - 1) / chunk_size;
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) tasks_.push_back({list, chunk});
  }
}

void Evaluation::work() {
  while (!failed_.load()) {
    const std::size_t next = next_.fetch_add(1);
    if (next >= tasks_.size()) return;
    const Task& task = tasks_[next];
    try {
      evaluator_->score_chunk(*model_, lists_[task.list], task.chunk, scores_[task.list]);
    } catch (...) {
      failed_.store(true);
      throw;
    }
  }
}

EvalResult Evaluation::result() const {
  if (failed()) throw std::logic_error("Evaluation::result: a scoring task failed");
  EvalResult out;
  out.k = evaluator_->k_ != 0 ? evaluator_->k_
                              : std::max<std::size_t>(10, lists_[kTestNeg].size() / 30);
  out.val_hits = eval::hits_at_k(scores_[kValPos], scores_[kValNeg], out.k);
  out.test_hits = eval::hits_at_k(scores_[kTestPos], scores_[kTestNeg], out.k);
  out.val_auc = eval::auc(scores_[kValPos], scores_[kValNeg]);
  out.test_auc = eval::auc(scores_[kTestPos], scores_[kTestNeg]);
  return out;
}

Evaluator::Evaluator(const sampling::LinkSplit& split, const graph::FeatureStore& features,
                     std::vector<std::uint32_t> fanouts, std::size_t k, std::size_t chunk_size,
                     std::uint64_t seed, std::size_t num_threads)
    : split_(&split), features_(&features), fanouts_(std::move(fanouts)), k_(k),
      chunk_size_(std::max<std::size_t>(1, chunk_size)), seed_(seed),
      pool_(num_threads != 1 ? std::make_unique<util::ThreadPool>(num_threads) : nullptr) {}

void Evaluator::score_chunk(const nn::LinkPredictionModel& model, std::span<const NodePair> pairs,
                            std::size_t chunk, std::span<float> scores) const {
  const tensor::NoGradScope no_tape;
  const std::size_t begin = chunk * chunk_size_;
  const std::size_t end = std::min(pairs.size(), begin + chunk_size_);
  util::Rng rng = util::Rng(seed_).split("evaluator").split("chunk", chunk);
  sampling::GraphProvider provider(split_->train_graph);

  const NodeId num_nodes = split_->train_graph.num_nodes();
  std::vector<NodeId> seeds;
  seeds.reserve(2 * (end - begin));
  for (std::size_t i = begin; i < end; ++i) {
    if (pairs[i].u >= num_nodes || pairs[i].v >= num_nodes) {
      throw std::out_of_range("Evaluator: pair " + std::to_string(i) + " (" +
                              std::to_string(pairs[i].u) + ", " + std::to_string(pairs[i].v) +
                              ") names a node outside the training graph");
    }
    seeds.push_back(pairs[i].u);
    seeds.push_back(pairs[i].v);
  }
  const auto cg = sampling::NeighborSampler(fanouts_).sample(provider, seeds, rng);

  std::unordered_map<NodeId, std::uint32_t> seed_index;
  const auto seed_nodes = cg.seed_nodes();
  seed_index.reserve(seed_nodes.size() * 2);
  for (std::uint32_t i = 0; i < seed_nodes.size(); ++i) seed_index.emplace(seed_nodes[i], i);

  const auto embeddings = model.encode(cg, *features_);
  std::vector<nn::PairIndex> index_pairs;
  index_pairs.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    index_pairs.push_back({seed_index.at(pairs[i].u), seed_index.at(pairs[i].v)});
  }
  const auto logits = model.score(embeddings, index_pairs);
  for (std::size_t i = 0; i < index_pairs.size(); ++i) {
    scores[begin + i] = logits.value().at(i, 0);
  }
}

void Evaluator::work(Evaluation& evaluation) const {
  std::vector<std::future<void>> helpers;
  for (std::size_t t = 0; pool_ != nullptr && t < pool_->size(); ++t) {
    helpers.push_back(pool_->submit([&evaluation] { evaluation.work(); }));
  }
  // The helpers reference `evaluation`: wait for all of them on every path.
  try {
    evaluation.work();
  } catch (...) {
    for (auto& helper : helpers) helper.wait();
    throw;
  }
  for (auto& helper : helpers) helper.get();  // rethrows a helper's failure
}

std::unique_ptr<Evaluation> Evaluator::begin(const nn::LinkPredictionModel& model) const {
  std::vector<std::vector<NodePair>> lists(4);
  lists[kValPos] = to_pairs(split_->val_pos);
  lists[kValNeg] = split_->val_neg;
  lists[kTestPos] = to_pairs(split_->test_pos);
  lists[kTestNeg] = split_->test_neg;
  return std::unique_ptr<Evaluation>(new Evaluation(*this, model, std::move(lists)));
}

EvalResult Evaluator::evaluate(const nn::LinkPredictionModel& model) const {
  const auto evaluation = begin(model);
  work(*evaluation);
  return evaluation->result();
}

std::vector<float> Evaluator::score_pairs(const nn::LinkPredictionModel& model,
                                          std::span<const NodePair> pairs) const {
  Evaluation evaluation(*this, model, {std::vector<NodePair>(pairs.begin(), pairs.end())});
  work(evaluation);
  return std::move(evaluation.scores_[0]);
}

}  // namespace splpg::core
