#ifndef TSAUG_NN_LAYERS_H_
#define TSAUG_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "nn/ops.h"

namespace tsaug::nn {

/// Base class for trainable components.
///
/// Convention: Parameters() returns only the module's *direct* parameters;
/// Children() returns submodules. AllParameters()/GetState()/SetState()
/// walk the tree, so composite networks only wire up Children().
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Direct trainable parameters of this module (not of children).
  virtual std::vector<Variable> Parameters() const { return {}; }

  /// Direct submodules.
  virtual std::vector<Module*> Children() { return {}; }

  /// Non-parameter state (e.g. batch-norm running statistics) appended to /
  /// consumed from a state vector. Overridden by stateful layers.
  virtual void AppendExtraState(std::vector<Tensor>* state) const {
    (void)state;
  }
  virtual void ConsumeExtraState(const std::vector<Tensor>& state,
                                 size_t* pos) {
    (void)state;
    (void)pos;
  }

  /// Switches train/eval behaviour (batch norm); recurses into children.
  virtual void SetTraining(bool training);

  /// All parameters of the subtree rooted here.
  std::vector<Variable> AllParameters();

  /// Zeroes every parameter gradient in the subtree.
  void ZeroGrad();

  /// Deep-copies all parameter values and extra state of the subtree
  /// (used to snapshot the best model during early stopping).
  std::vector<Tensor> GetState();

  /// Restores a snapshot produced by GetState() on an identical topology.
  void SetState(const std::vector<Tensor>& state);
};

/// Fills a tensor with Glorot-uniform values for the given fan-in/out.
void GlorotInit(Tensor& t, int fan_in, int fan_out, core::Rng& rng);

/// Fully-connected layer: y = x W + b, x [n,in] -> [n,out].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, core::Rng& rng);

  Variable Forward(const Variable& x) const;

  std::vector<Variable> Parameters() const override { return {w_, b_}; }
  int in_features() const { return w_.value().dim(0); }
  int out_features() const { return w_.value().dim(1); }

 private:
  Variable w_;
  Variable b_;
};

/// 1-D convolution layer with 'same' padding, dilation 1 and no bias over
/// [n, channels, time].
class Conv1dLayer : public Module {
 public:
  Conv1dLayer(int in_channels, int out_channels, int kernel_size,
              core::Rng& rng);

  Variable Forward(const Variable& x) const;

  std::vector<Variable> Parameters() const override { return {w_}; }
  int kernel_size() const { return w_.value().dim(2); }

 private:
  Variable w_;  // [out, in, k]
};

/// Batch normalisation over [n, channels, time] with running statistics
/// (momentum 0.1, eps 1e-5, the PyTorch and Keras defaults).
class BatchNorm1d : public Module {
 public:
  explicit BatchNorm1d(int channels);

  Variable Forward(const Variable& x);

  std::vector<Variable> Parameters() const override { return {gamma_, beta_}; }
  void SetTraining(bool training) override { training_ = training; }
  void AppendExtraState(std::vector<Tensor>* state) const override;
  void ConsumeExtraState(const std::vector<Tensor>& state,
                         size_t* pos) override;

  const std::vector<double>& running_mean() const { return running_mean_; }
  const std::vector<double>& running_var() const { return running_var_; }

 private:
  Variable gamma_;
  Variable beta_;
  std::vector<double> running_mean_;
  std::vector<double> running_var_;
  bool training_ = true;
  bool stats_initialized_ = false;
};

/// A single GRU cell (Cho et al.): update/reset gates + candidate state.
class GruCell : public Module {
 public:
  GruCell(int input_size, int hidden_size, core::Rng& rng);

  /// One recurrence step: x [n,in], h [n,hidden] -> new h [n,hidden].
  Variable Step(const Variable& x, const Variable& h) const;

  std::vector<Variable> Parameters() const override;
  int hidden_size() const { return hidden_size_; }

 private:
  int hidden_size_;
  Variable wz_, uz_, bz_;  // update gate
  Variable wr_, ur_, br_;  // reset gate
  Variable wh_, uh_, bh_;  // candidate
};

/// Stacked unidirectional GRU over [n, time, features]; backprop through
/// time falls out of the autodiff graph. Returns the top layer's hidden
/// state at every step: [n, time, hidden].
class Gru : public Module {
 public:
  Gru(int input_size, int hidden_size, int num_layers, core::Rng& rng);

  Variable Forward(const Variable& x) const;

  std::vector<Module*> Children() override;
  int hidden_size() const { return hidden_size_; }

 private:
  int hidden_size_;
  std::vector<std::unique_ptr<GruCell>> cells_;
};

/// Applies a Linear layer independently at every time step:
/// [n, time, in] -> [n, time, out].
class TimeDistributed : public Module {
 public:
  TimeDistributed(int in_features, int out_features, core::Rng& rng);

  Variable Forward(const Variable& x) const;

  std::vector<Module*> Children() override { return {&linear_}; }

 private:
  Linear linear_;
};

}  // namespace tsaug::nn

#endif  // TSAUG_NN_LAYERS_H_
