#include "nn/optimizer.hpp"

#include <cmath>
#include <istream>
#include <stdexcept>

#include "io/section.hpp"
#include "nn/matrix_section.hpp"
#include "tensor/vec.hpp"

namespace splpg::nn {

namespace {
// Optimizer-state section inside a train-state checkpoint. The legacy
// "SPOS" layout (magic, t, count, moments — no checksums) is still readable;
// new states are written as "SPO2": magic, t, count, payload byte count,
// payload CRC-32, header CRC-32, then the moment payload
// (nn/matrix_section.hpp). The magic changed (instead of a version bump)
// because the v1 layout has no version field — the byte after the magic is
// already the step counter.
constexpr std::uint32_t kStateMagicLegacy = 0x53504F53;  // "SPOS"
constexpr std::uint32_t kStateMagic = 0x53504F32;        // "SPO2"
}  // namespace

OptimizerState decode_optimizer_state(std::istream& in) {
  OptimizerState state;
  if (in.peek() == std::char_traits<char>::eof()) return state;
  io::SectionReader section(in, "optimizer state");
  const auto magic = section.read<std::uint32_t>();
  if (magic != kStateMagic && magic != kStateMagicLegacy) {
    section.fail("bad magic (not an SPO2 optimizer state)");
  }
  state.present = true;
  state.checksummed = magic == kStateMagic;
  state.step = section.read<std::uint64_t>();
  const auto count = section.read<std::uint64_t>();
  if (count > UINT64_MAX / 2) section.fail("implausible moment count " + std::to_string(count));
  state.moments = state.checksummed ? read_matrix_section(section, 2 * count)
                                    : read_matrices(section, 2 * count);
  return state;
}

void Optimizer::save_state(std::ostream& out) const { (void)out; }

void Optimizer::check_state(const OptimizerState& state) const {
  if (state.present) {
    throw std::invalid_argument("Optimizer::load_state: a stateless optimizer got a state");
  }
}

void Sgd::step() {
  for (auto& p : *parameters_) {
    if (p.grad().empty()) continue;
    auto& value = p.mutable_value();
    if (weight_decay_ > 0.0F) value.scale_inplace(1.0F - learning_rate_ * weight_decay_);
    value.axpy_inplace(-learning_rate_, p.grad());
  }
}

Adam::Adam(Module& module, float learning_rate, float beta1, float beta2, float epsilon)
    : Optimizer(module), learning_rate_(learning_rate), beta1_(beta1), beta2_(beta2),
      epsilon_(epsilon) {
  m_.reserve(parameters_->size());
  v_.reserve(parameters_->size());
  for (const auto& p : *parameters_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::step() {
  ++t_;
  const float bias1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));
  // adam_step is one of the bit-identical-on-every-backend kernels (see
  // vec.hpp), so checkpoints and resumed runs never depend on SPLPG_VEC.
  const tensor::VecKernels& kern = tensor::vec_kernels();
  for (std::size_t i = 0; i < parameters_->size(); ++i) {
    auto& p = (*parameters_)[i];
    if (p.grad().empty()) continue;
    const auto grad = p.grad().data();
    kern.adam_step_f32(p.mutable_value().data().data(), m_[i].data().data(),
                       v_[i].data().data(), grad.data(), grad.size(), beta1_, beta2_,
                       learning_rate_, bias1, bias2, epsilon_);
  }
}

void Adam::save_state(std::ostream& out) const {
  std::vector<const tensor::Matrix*> moments;
  for (std::size_t i = 0; i < m_.size(); ++i) {
    moments.push_back(&m_[i]);
    moments.push_back(&v_[i]);
  }
  write_matrix_section(out, moments, kStateMagic, t_, std::uint64_t{m_.size()});
  if (!out) throw std::runtime_error("Adam::save_state: write failed");
}

void Adam::check_state(const OptimizerState& state) const {
  if (!state.present || state.moments.size() != 2 * m_.size()) {
    throw std::invalid_argument("Adam::load_state: moment count mismatch");
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (!state.moments[2 * i].same_shape(m_[i]) || !state.moments[2 * i + 1].same_shape(v_[i])) {
      throw std::invalid_argument("Adam::load_state: moment shape mismatch");
    }
  }
}

void Adam::apply_state(const OptimizerState& state) {
  check_state(state);
  for (std::size_t i = 0; i < m_.size(); ++i) {
    m_[i] = state.moments[2 * i];
    v_[i] = state.moments[2 * i + 1];
  }
  t_ = state.step;
}

}  // namespace splpg::nn
