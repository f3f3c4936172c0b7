// First-order optimizers over a Module's parameter list.
//
// Workers keep per-replica optimizer state; with gradient averaging the
// replicas stay bit-identical (same init, same averaged gradients, same
// deterministic update), which mirrors PyTorch DDP semantics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "nn/module.hpp"
#include "tensor/matrix.hpp"

namespace splpg::nn {

/// An optimizer-state section decoded without an optimizer: the step count
/// and, per parameter, its first then second moment.
struct OptimizerState {
  bool present = false;  // false: no section (stateless optimizers write none)
  bool checksummed = false;
  std::uint64_t step = 0;
  std::vector<tensor::Matrix> moments;
};

/// Decodes one optimizer-state section ("SPO2", or the legacy "SPOS"),
/// checking its checksums. At end of stream: an absent state.
[[nodiscard]] OptimizerState decode_optimizer_state(std::istream& in);

class Optimizer {
 public:
  explicit Optimizer(Module& module) : parameters_(&module.parameters()) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the current gradients.
  virtual void step() = 0;

  /// (De)serializes the optimizer's internal state (step count, moment
  /// estimates). Loading into an optimizer built over an identically shaped
  /// module makes subsequent steps bit-identical to never having paused —
  /// the exact-resume contract nn::save_train_state builds on. Stateless
  /// optimizers (SGD) write nothing.
  virtual void save_state(std::ostream& out) const;
  /// Throws std::invalid_argument unless `state` fits this optimizer's
  /// parameters in count and shape. Changes nothing.
  virtual void check_state(const OptimizerState& state) const;
  /// check_state, then adopts `state`.
  virtual void apply_state(const OptimizerState& state) { check_state(state); }
  /// apply_state(decode_optimizer_state(in)); format errors throw
  /// io::FormatError.
  void load_state(std::istream& in) { apply_state(decode_optimizer_state(in)); }

  void zero_grad() noexcept {
    for (auto& p : *parameters_) p.zero_grad();
  }

 protected:
  std::vector<tensor::Tensor>* parameters_;
};

class Sgd final : public Optimizer {
 public:
  Sgd(Module& module, float learning_rate, float weight_decay = 0.0F)
      : Optimizer(module), learning_rate_(learning_rate), weight_decay_(weight_decay) {}

  void step() override;

 private:
  float learning_rate_;
  float weight_decay_;
};

class Adam final : public Optimizer {
 public:
  Adam(Module& module, float learning_rate = 1e-3F, float beta1 = 0.9F, float beta2 = 0.999F,
       float epsilon = 1e-8F);

  void step() override;

  void save_state(std::ostream& out) const override;
  void check_state(const OptimizerState& state) const override;
  void apply_state(const OptimizerState& state) override;

 private:
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  std::uint64_t t_ = 0;
  std::vector<tensor::Matrix> m_;
  std::vector<tensor::Matrix> v_;
};

}  // namespace splpg::nn
