#include "nn/layers.h"

#include <cmath>

namespace tsaug::nn {

void Module::SetTraining(bool training) {
  for (Module* child : Children()) child->SetTraining(training);
}

std::vector<Variable> Module::AllParameters() {
  std::vector<Variable> all = Parameters();
  for (Module* child : Children()) {
    const std::vector<Variable> sub = child->AllParameters();
    all.insert(all.end(), sub.begin(), sub.end());
  }
  return all;
}

void Module::ZeroGrad() {
  for (Variable& p : AllParameters()) p.ZeroGrad();
}

std::vector<Tensor> Module::GetState() {
  std::vector<Tensor> state;
  for (const Variable& p : AllParameters()) state.push_back(p.value());
  // Extra state of the whole subtree, own first then children (the same
  // order ConsumeExtraState walks).
  struct Walker {
    static void Append(Module* m, std::vector<Tensor>* out) {
      m->AppendExtraState(out);
      for (Module* child : m->Children()) Append(child, out);
    }
  };
  Walker::Append(this, &state);
  return state;
}

void Module::SetState(const std::vector<Tensor>& state) {
  std::vector<Variable> params = AllParameters();
  TSAUG_CHECK(state.size() >= params.size());
  size_t pos = 0;
  for (Variable& p : params) {
    TSAUG_CHECK(p.value().SameShape(state[pos]));
    p.mutable_value() = state[pos++];
  }
  struct Walker {
    static void Consume(Module* m, const std::vector<Tensor>& state,
                        size_t* pos) {
      m->ConsumeExtraState(state, pos);
      for (Module* child : m->Children()) Consume(child, state, pos);
    }
  };
  Walker::Consume(this, state, &pos);
  TSAUG_CHECK(pos == state.size());
}

void GlorotInit(Tensor& t, int fan_in, int fan_out, core::Rng& rng) {
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (double& v : t.data()) v = rng.Uniform(-limit, limit);
}

Linear::Linear(int in_features, int out_features, core::Rng& rng) {
  Tensor w({in_features, out_features});
  GlorotInit(w, in_features, out_features, rng);
  w_ = Variable(std::move(w), /*requires_grad=*/true);
  b_ = Variable(Tensor({out_features}), /*requires_grad=*/true);
}

Variable Linear::Forward(const Variable& x) const {
  return AddRowBias(MatMul(x, w_), b_);
}

Conv1dLayer::Conv1dLayer(int in_channels, int out_channels, int kernel_size,
                         core::Rng& rng) {
  Tensor w({out_channels, in_channels, kernel_size});
  GlorotInit(w, in_channels * kernel_size, out_channels * kernel_size, rng);
  w_ = Variable(std::move(w), /*requires_grad=*/true);
}

Variable Conv1dLayer::Forward(const Variable& x) const {
  return Conv1dSame(x, w_, 1);
}

namespace {

constexpr double kBatchNormMomentum = 0.1;
constexpr double kBatchNormEps = 1e-5;

}  // namespace

BatchNorm1d::BatchNorm1d(int channels)
    : running_mean_(static_cast<size_t>(channels), 0.0),
      running_var_(static_cast<size_t>(channels), 1.0) {
  gamma_ = Variable(Tensor({channels}, 1.0), /*requires_grad=*/true);
  beta_ = Variable(Tensor({channels}), /*requires_grad=*/true);
}

Variable BatchNorm1d::Forward(const Variable& x) {
  if (!training_) {
    return BatchNormInference(x, gamma_, beta_, running_mean_, running_var_,
                              kBatchNormEps);
  }
  std::vector<double> batch_mean;
  std::vector<double> batch_var;
  Variable out = BatchNormTrain(x, gamma_, beta_, kBatchNormEps, &batch_mean,
                                &batch_var);
  if (!stats_initialized_) {
    running_mean_ = batch_mean;
    running_var_ = batch_var;
    stats_initialized_ = true;
  } else {
    for (size_t c = 0; c < running_mean_.size(); ++c) {
      running_mean_[c] = (1.0 - kBatchNormMomentum) * running_mean_[c] +
                         kBatchNormMomentum * batch_mean[c];
      running_var_[c] = (1.0 - kBatchNormMomentum) * running_var_[c] +
                        kBatchNormMomentum * batch_var[c];
    }
  }
  return out;
}

void BatchNorm1d::AppendExtraState(std::vector<Tensor>* state) const {
  Tensor mean({static_cast<int>(running_mean_.size())});
  Tensor var({static_cast<int>(running_var_.size())});
  mean.data().assign(running_mean_.begin(), running_mean_.end());
  var.data().assign(running_var_.begin(), running_var_.end());
  state->push_back(std::move(mean));
  state->push_back(std::move(var));
}

void BatchNorm1d::ConsumeExtraState(const std::vector<Tensor>& state,
                                    size_t* pos) {
  TSAUG_CHECK(*pos + 2 <= state.size());
  const auto& mean = state[(*pos)++].data();
  const auto& var = state[(*pos)++].data();
  running_mean_.assign(mean.begin(), mean.end());
  running_var_.assign(var.begin(), var.end());
  stats_initialized_ = true;
}

GruCell::GruCell(int input_size, int hidden_size, core::Rng& rng)
    : hidden_size_(hidden_size) {
  auto make_weight = [&](int rows, int cols) {
    Tensor w({rows, cols});
    GlorotInit(w, rows, cols, rng);
    return Variable(std::move(w), /*requires_grad=*/true);
  };
  auto make_bias = [&](int size) {
    return Variable(Tensor({size}), /*requires_grad=*/true);
  };
  wz_ = make_weight(input_size, hidden_size);
  uz_ = make_weight(hidden_size, hidden_size);
  bz_ = make_bias(hidden_size);
  wr_ = make_weight(input_size, hidden_size);
  ur_ = make_weight(hidden_size, hidden_size);
  br_ = make_bias(hidden_size);
  wh_ = make_weight(input_size, hidden_size);
  uh_ = make_weight(hidden_size, hidden_size);
  bh_ = make_bias(hidden_size);
}

Variable GruCell::Step(const Variable& x, const Variable& h) const {
  // Fused gate ops: one node per gate instead of Sigmoid(AddRowBias(Add(
  // ...))), with bitwise-identical values and gradients.
  const Variable z = AddRowBiasSigmoid(MatMul(x, wz_), MatMul(h, uz_), bz_);
  const Variable r = AddRowBiasSigmoid(MatMul(x, wr_), MatMul(h, ur_), br_);
  const Variable candidate =
      AddRowBiasTanh(MatMul(x, wh_), MatMul(Mul(r, h), uh_), bh_);
  // h' = (1 - z) * h + z * candidate.
  return Add(Mul(OneMinus(z), h), Mul(z, candidate));
}

std::vector<Variable> GruCell::Parameters() const {
  return {wz_, uz_, bz_, wr_, ur_, br_, wh_, uh_, bh_};
}

Gru::Gru(int input_size, int hidden_size, int num_layers, core::Rng& rng)
    : hidden_size_(hidden_size) {
  TSAUG_CHECK(num_layers >= 1);
  for (int layer = 0; layer < num_layers; ++layer) {
    const int in = layer == 0 ? input_size : hidden_size;
    cells_.push_back(std::make_unique<GruCell>(in, hidden_size, rng));
  }
}

Variable Gru::Forward(const Variable& x) const {
  TSAUG_CHECK(x.value().ndim() == 3);
  const int n = x.value().dim(0);
  const int time = x.value().dim(1);

  std::vector<Variable> layer_input;
  layer_input.reserve(static_cast<size_t>(time));
  for (int t = 0; t < time; ++t) layer_input.push_back(SelectTime(x, t));

  for (const auto& cell : cells_) {
    Variable h(Tensor({n, hidden_size_}));  // zero initial state, constant
    std::vector<Variable> outputs;
    outputs.reserve(static_cast<size_t>(time));
    for (int t = 0; t < time; ++t) {
      h = cell->Step(layer_input[static_cast<size_t>(t)], h);
      outputs.push_back(h);
    }
    layer_input = std::move(outputs);
  }
  return StackTime(layer_input);
}

std::vector<Module*> Gru::Children() {
  std::vector<Module*> children;
  for (const auto& cell : cells_) children.push_back(cell.get());
  return children;
}

TimeDistributed::TimeDistributed(int in_features, int out_features,
                                 core::Rng& rng)
    : linear_(in_features, out_features, rng) {}

Variable TimeDistributed::Forward(const Variable& x) const {
  TSAUG_CHECK(x.value().ndim() == 3);
  const int time = x.value().dim(1);
  std::vector<Variable> steps;
  steps.reserve(static_cast<size_t>(time));
  for (int t = 0; t < time; ++t) {
    steps.push_back(linear_.Forward(SelectTime(x, t)));
  }
  return StackTime(steps);
}

}  // namespace tsaug::nn
