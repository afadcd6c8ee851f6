#ifndef TSAUG_NN_OPTIMIZER_H_
#define TSAUG_NN_OPTIMIZER_H_

#include <vector>

#include "nn/autograd.h"

namespace tsaug::nn {

/// Adam (Kingma & Ba) with bias correction and the paper defaults beta1
/// 0.9, beta2 0.999 and eps 1e-8: the optimiser used for InceptionTime,
/// TimeGAN and the VAE, over a fixed parameter list.
class Adam {
 public:
  Adam(std::vector<Variable> parameters, double learning_rate);

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (Variable& p : parameters_) p.ZeroGrad();
  }

  void set_learning_rate(double lr) { learning_rate_ = lr; }

 private:
  std::vector<Variable> parameters_;
  double learning_rate_;
  long long t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace tsaug::nn

#endif  // TSAUG_NN_OPTIMIZER_H_
