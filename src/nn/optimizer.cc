#include "nn/optimizer.h"

#include <cmath>

namespace tsaug::nn {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(std::vector<Variable> parameters, double learning_rate)
    : parameters_(std::move(parameters)), learning_rate_(learning_rate) {
  for (const Variable& p : parameters_) {
    m_.emplace_back(p.value().shape());
    v_.emplace_back(p.value().shape());
  }
}

void Adam::Step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Variable& p = parameters_[i];
    if (p.grad().numel() != p.value().numel()) continue;  // never touched
    for (size_t j = 0; j < p.value().numel(); ++j) {
      const double g = p.grad()[j];
      m_[i][j] = kBeta1 * m_[i][j] + (1.0 - kBeta1) * g;
      v_[i][j] = kBeta2 * v_[i][j] + (1.0 - kBeta2) * g * g;
      const double m_hat = m_[i][j] / bias1;
      const double v_hat = v_[i][j] / bias2;
      p.mutable_value()[j] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + kEps);
    }
  }
}

}  // namespace tsaug::nn
