#include "nn/layers.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/optimizer.h"

namespace tsaug::nn {
namespace {

TEST(Linear, ShapesAndDeterminism) {
  core::Rng rng(1);
  Linear layer(4, 3, rng);
  Variable x(Tensor({5, 4}, 1.0));
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{5, 3}));
  // Identical rows -> identical outputs.
  for (int j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(y.value().at(0, j), y.value().at(4, j));
  }
}

TEST(Linear, TrainsToFitLinearTarget) {
  core::Rng rng(2);
  Linear layer(2, 1, rng);
  Adam adam(layer.AllParameters(), 0.05);

  Tensor x({16, 2});
  Tensor target({16, 1});
  for (int i = 0; i < 16; ++i) {
    x.at(i, 0) = rng.Normal();
    x.at(i, 1) = rng.Normal();
    target.at(i, 0) = 3.0 * x.at(i, 0) - 2.0 * x.at(i, 1) + 0.5;
  }
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    adam.ZeroGrad();
    Variable loss = MseLoss(layer.Forward(Variable(x)), target);
    loss.Backward();
    adam.Step();
    final_loss = loss.value().scalar();
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(Conv1dLayer, OutputShapePreservesTime) {
  core::Rng rng(3);
  Conv1dLayer conv(3, 8, 5, rng);
  Variable x(Tensor({2, 3, 17}));
  Variable y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 8, 17}));
}

TEST(Conv1dLayer, WeightsAreTheOnlyParametersSoZeroInputGivesZero) {
  core::Rng rng(4);
  Conv1dLayer conv(2, 4, 3, rng);
  EXPECT_EQ(conv.Parameters().size(), 1u);
  Variable x(Tensor({1, 2, 5}, 0.0));
  Variable y = conv.Forward(x);
  for (size_t i = 0; i < y.value().numel(); ++i) {
    EXPECT_DOUBLE_EQ(y.value()[i], 0.0);  // zero input, no bias -> zero out
  }
}

TEST(BatchNorm1d, NormalizesTrainingBatch) {
  core::Rng rng(5);
  BatchNorm1d bn(2);
  Tensor x({4, 2, 8});
  for (double& v : x.data()) v = rng.Normal(5.0, 3.0);
  Variable y = bn.Forward(Variable(x));
  // Per-channel mean ~0, var ~1 after normalisation (gamma=1, beta=0).
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (int i = 0; i < 4; ++i) {
      for (int t = 0; t < 8; ++t) mean += y.value().at(i, c, t);
    }
    mean /= 32.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
  }
}

TEST(BatchNorm1d, InferenceUsesRunningStats) {
  core::Rng rng(6);
  BatchNorm1d bn(1);
  // Feed several training batches with mean ~10.
  for (int step = 0; step < 20; ++step) {
    Tensor x({8, 1, 4});
    for (double& v : x.data()) v = rng.Normal(10.0, 2.0);
    bn.Forward(Variable(x));
  }
  bn.SetTraining(false);
  Tensor probe({1, 1, 4}, 10.0);
  Variable y = bn.Forward(Variable(probe));
  // An input at the running mean maps near zero.
  EXPECT_NEAR(y.value().at(0, 0, 0), 0.0, 0.5);
}

TEST(BatchNorm1d, StateRoundTripsThroughGetSetState) {
  core::Rng rng(7);
  BatchNorm1d bn(3);
  Tensor x({4, 3, 5});
  for (double& v : x.data()) v = rng.Normal(2.0, 1.5);
  bn.Forward(Variable(x));
  const std::vector<Tensor> state = bn.GetState();

  BatchNorm1d restored(3);
  restored.SetState(state);
  EXPECT_EQ(restored.running_mean(), bn.running_mean());
  EXPECT_EQ(restored.running_var(), bn.running_var());
}

TEST(GruCell, StepShapesAndRange) {
  core::Rng rng(8);
  GruCell cell(3, 5, rng);
  Variable x(Tensor({2, 3}, 0.5));
  Variable h(Tensor({2, 5}));
  Variable h_next = cell.Step(x, h);
  EXPECT_EQ(h_next.shape(), (std::vector<int>{2, 5}));
  // GRU state is a convex combination of tanh outputs: bounded by 1.
  for (size_t i = 0; i < h_next.value().numel(); ++i) {
    EXPECT_LT(std::fabs(h_next.value()[i]), 1.0);
  }
}

TEST(Gru, ForwardShape) {
  core::Rng rng(9);
  Gru gru(4, 6, /*num_layers=*/2, rng);
  Variable x(Tensor({3, 7, 4}, 0.1));
  Variable out = gru.Forward(x);
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 7, 6}));
}

TEST(Gru, GradientsReachAllParameters) {
  core::Rng rng(10);
  Gru gru(2, 3, 2, rng);
  Tensor x({2, 5, 2});
  for (double& v : x.data()) v = rng.Normal();
  Variable loss = Mean(gru.Forward(Variable(x)));
  loss.Backward();
  for (const Variable& p : gru.AllParameters()) {
    double norm = 0.0;
    for (size_t i = 0; i < p.grad().numel(); ++i) norm += std::fabs(p.grad()[i]);
    EXPECT_GT(norm, 0.0);
  }
}

TEST(Gru, LearnsToOutputLastInput) {
  // Tiny BPTT sanity check: map a constant input sequence to its value.
  core::Rng rng(11);
  Gru gru(1, 4, 1, rng);
  Linear head(4, 1, rng);
  std::vector<Variable> params = gru.AllParameters();
  for (const Variable& p : head.AllParameters()) params.push_back(p);
  Adam adam(params, 0.02);

  double final_loss = 1e9;
  for (int step = 0; step < 200; ++step) {
    Tensor x({8, 6, 1});
    Tensor target({8, 1});
    for (int i = 0; i < 8; ++i) {
      const double v = rng.Uniform(-1, 1);
      for (int t = 0; t < 6; ++t) x.at(i, t, 0) = v;
      target.at(i, 0) = v;
    }
    adam.ZeroGrad();
    Variable out = gru.Forward(Variable(x));
    Variable last = SelectTime(out, 5);
    Variable loss = MseLoss(head.Forward(last), target);
    loss.Backward();
    adam.Step();
    final_loss = loss.value().scalar();
  }
  EXPECT_LT(final_loss, 0.02);
}

TEST(TimeDistributed, AppliesSameMapEachStep) {
  core::Rng rng(12);
  TimeDistributed td(2, 3, rng);
  Tensor x({1, 4, 2});
  for (int t = 0; t < 4; ++t) {
    x.at(0, t, 0) = 1.0;
    x.at(0, t, 1) = -1.0;
  }
  Variable y = td.Forward(Variable(x));
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 4, 3}));
  for (int t = 1; t < 4; ++t) {
    for (int f = 0; f < 3; ++f) {
      EXPECT_DOUBLE_EQ(y.value().at(0, t, f), y.value().at(0, 0, f));
    }
  }
}

TEST(Module, GetSetStateRoundTripsParameters) {
  core::Rng rng(13);
  Linear a(3, 2, rng);
  const std::vector<Tensor> state = a.GetState();
  Linear b(3, 2, rng);  // different init
  b.SetState(state);
  Variable x(Tensor({1, 3}, 1.0));
  EXPECT_EQ(a.Forward(x).value(), b.Forward(x).value());
}

TEST(Optimizer, AdamDescendsIllConditionedQuadratic) {
  Variable w1(Tensor::Scalar(3.0), true);
  Variable w2(Tensor::Scalar(-4.0), true);
  Adam adam({w1, w2}, 0.1);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    // f = 100*w1^2 + 0.01*w2^2.
    Variable loss = Add(ScaleBy(Mul(w1, w1), 100.0), ScaleBy(Mul(w2, w2), 0.01));
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(std::fabs(w1.value().scalar()), 1e-2);
  EXPECT_LT(std::fabs(w2.value().scalar()), 1.0);
}

}  // namespace
}  // namespace tsaug::nn
