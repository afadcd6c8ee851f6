// Numerical gradient checks for every autodiff op: the analytic backward of
// each op is compared against central differences on random inputs. These
// are the load-bearing tests for InceptionTime and TimeGAN correctness.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "nn/ops.h"

namespace tsaug::nn {
namespace {

Tensor RandomTensor(const std::vector<int>& shape, core::Rng& rng,
                    double scale = 1.0) {
  Tensor t(shape);
  for (double& v : t.data()) v = rng.Normal(0.0, scale);
  return t;
}

// Checks d(loss)/d(leaf_i) for every i of every leaf against central
// differences. `build_loss` must construct the graph from the leaf tensors.
void CheckGradients(std::vector<Tensor>& leaves,
                    const std::function<Variable(std::vector<Variable>&)>& build_loss,
                    double tolerance = 1e-6) {
  // Analytic gradients.
  std::vector<Variable> vars;
  vars.reserve(leaves.size());
  for (Tensor& leaf : leaves) vars.emplace_back(leaf, /*requires_grad=*/true);
  Variable loss = build_loss(vars);
  loss.Backward();

  auto loss_value = [&]() {
    std::vector<Variable> fresh;
    fresh.reserve(leaves.size());
    for (Tensor& leaf : leaves) fresh.emplace_back(leaf, false);
    return build_loss(fresh).value().scalar();
  };

  for (size_t leaf_idx = 0; leaf_idx < leaves.size(); ++leaf_idx) {
    for (size_t i = 0; i < leaves[leaf_idx].numel(); ++i) {
      const double numeric =
          NumericalGradient(loss_value, leaves[leaf_idx], i);
      const double analytic = vars[leaf_idx].grad()[i];
      EXPECT_NEAR(analytic, numeric, tolerance)
          << "leaf " << leaf_idx << " entry " << i;
    }
  }
}

TEST(GradCheck, MatMul) {
  core::Rng rng(1);
  std::vector<Tensor> leaves = {RandomTensor({3, 4}, rng),
                                RandomTensor({4, 2}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(MatMul(v[0], v[1]));
  });
}

TEST(GradCheck, AddSubMul) {
  core::Rng rng(2);
  std::vector<Tensor> leaves = {RandomTensor({2, 3}, rng),
                                RandomTensor({2, 3}, rng),
                                RandomTensor({2, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(Sub(Add(v[0], v[1]), v[2]), v[1]));
  });
}

TEST(GradCheck, AddRowBias) {
  core::Rng rng(3);
  std::vector<Tensor> leaves = {RandomTensor({4, 3}, rng),
                                RandomTensor({3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(AddRowBias(v[0], v[1]));
  });
}

TEST(GradCheck, Activations) {
  core::Rng rng(4);
  std::vector<Tensor> leaves = {RandomTensor({3, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Sigmoid(Tanh(v[0])));
  });
  // Relu away from the kink.
  std::vector<Tensor> relu_leaves = {RandomTensor({3, 3}, rng)};
  for (double& x : relu_leaves[0].data()) {
    if (std::fabs(x) < 0.1) x += 0.5;
  }
  CheckGradients(relu_leaves, [](std::vector<Variable>& v) {
    return Mean(Relu(v[0]));
  });
}

TEST(GradCheck, ScalarOpsAndOneMinus) {
  core::Rng rng(5);
  std::vector<Tensor> leaves = {RandomTensor({2, 2}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(OneMinus(AddConst(ScaleBy(v[0], -1.5), 0.3)));
  });
}

TEST(GradCheck, SqrtExpReshape) {
  core::Rng rng(42);
  std::vector<Tensor> leaves = {RandomTensor({2, 3}, rng, 0.5)};
  // Keep sqrt inputs positive.
  for (double& v : leaves[0].data()) v = std::fabs(v) + 0.5;
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    Variable reshaped = Reshape(v[0], {3, 2});
    return Mean(Mul(Sqrt(reshaped), Exp(ScaleBy(reshaped, 0.3))));
  });
}

TEST(GradCheck, ConcatFeatures) {
  core::Rng rng(6);
  std::vector<Tensor> leaves = {RandomTensor({2, 2}, rng),
                                RandomTensor({2, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(ConcatFeatures({v[0], v[1]}),
                    ConcatFeatures({v[0], v[1]})));
  });
}

TEST(GradCheck, SelectAndStackTime) {
  core::Rng rng(7);
  std::vector<Tensor> leaves = {RandomTensor({2, 4, 3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    std::vector<Variable> steps;
    for (int t = 3; t >= 0; --t) steps.push_back(SelectTime(v[0], t));
    return Mean(Mul(StackTime(steps), StackTime(steps)));
  });
}

class Conv1dGradCheck
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Conv1dGradCheck, MatchesNumerical) {
  const auto [kernel, dilation] = GetParam();
  core::Rng rng(static_cast<size_t>(8 + kernel + dilation));
  std::vector<Tensor> leaves = {RandomTensor({2, 3, 9}, rng),
                                RandomTensor({2, 3, kernel}, rng)};
  CheckGradients(leaves, [dilation = dilation](std::vector<Variable>& v) {
    return Mean(Mul(Conv1dSame(v[0], v[1], dilation),
                    Conv1dSame(v[0], v[1], dilation)));
  }, 1e-5);
}

// Odd and even kernels (InceptionTime uses even ones), with dilation.
INSTANTIATE_TEST_SUITE_P(Kernels, Conv1dGradCheck,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{3, 1},
                                           std::tuple{4, 1}, std::tuple{5, 2},
                                           std::tuple{8, 1}, std::tuple{9, 3}));

// Conv1dSame bit for bit against the clamped per-tap loops it ran before it
// moved onto zero-padded rows. The reference skips zero weights and
// out-of-range taps; the padded rows add w * 0 = +-0 instead, which must
// leave every accumulator's bits unchanged, and non-finite weights and
// upstream gradients must take the clamped path.
struct ConvResult {
  Tensor out, dx, dw;
};

ConvResult ReferenceConv1dSame(const Tensor& x, const Tensor& w, int dilation,
                               const Tensor& dy, const Tensor& dx_prior) {
  const int n = x.dim(0), c = x.dim(1), time = x.dim(2);
  const int f = w.dim(0), k = w.dim(2);
  const int pad_left = (k - 1) * dilation / 2;
  ConvResult r{Tensor({n, f, time}), dx_prior, Tensor(w.shape())};
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < f; ++o) {
      for (int ch = 0; ch < c; ++ch) {
        for (int tap = 0; tap < k; ++tap) {
          const double wv = w.at(o, ch, tap);
          if (wv == 0.0) continue;
          const int shift = tap * dilation - pad_left;
          const int t_lo = std::max(0, -shift);
          const int t_hi = std::min(time, time - shift);
          for (int t = t_lo; t < t_hi; ++t) {
            r.out.at(i, o, t) += wv * x.at(i, ch, t + shift);
          }
        }
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < f; ++o) {
      for (int ch = 0; ch < c; ++ch) {
        for (int tap = 0; tap < k; ++tap) {
          const int shift = tap * dilation - pad_left;
          const int t_lo = std::max(0, -shift);
          const int t_hi = std::min(time, time - shift);
          const double wv = w.at(o, ch, tap);
          if (wv == 0.0 || t_lo >= t_hi) continue;
          for (int t = t_lo; t < t_hi; ++t) {
            r.dx.at(i, ch, t + shift) += wv * dy.at(i, o, t);
          }
        }
      }
    }
  }
  for (int o = 0; o < f; ++o) {
    for (int i = 0; i < n; ++i) {
      for (int ch = 0; ch < c; ++ch) {
        for (int tap = 0; tap < k; ++tap) {
          const int shift = tap * dilation - pad_left;
          const int t_lo = std::max(0, -shift);
          const int t_hi = std::min(time, time - shift);
          double dw = 0.0;
          for (int t = t_lo; t < t_hi; ++t) {
            dw += dy.at(i, o, t) * x.at(i, ch, t + shift);
          }
          r.dw.at(o, ch, tap) += dw;
        }
      }
    }
  }
  return r;
}

// Runs Conv1dSame's forward and its backward closure with upstream
// gradient `dy`, with dX landing on `dx_prior` as when x feeds two ops.
ConvResult RunConv1dSame(const Tensor& x, const Tensor& w, int dilation,
                         const Tensor& dy, const Tensor& dx_prior) {
  Variable vx(x, /*requires_grad=*/true);
  Variable vw(w, /*requires_grad=*/true);
  Variable y = Conv1dSame(vx, vw, dilation);
  Node& node = *y.node();
  node.grad = dy;
  vx.node()->grad = dx_prior;
  vw.node()->EnsureGrad();
  node.backward_fn(node);
  return {y.value(), vx.grad(), vw.grad()};
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(double)) == 0;
}

enum class Poison { kNone, kInfWeight, kNanWeight, kInfGrad, kNanGrad };

// One oracle case: random data with a quarter of the weights zero and at
// most one non-finite value, compared under every backend at 1/2/8 threads.
void ExpectConvMatchesReference(int dilation, int k, int channels,
                                int filters, int time, Poison poison) {
  constexpr int kN = 3;
  core::Rng rng(static_cast<std::uint64_t>(10000 * dilation + 1000 * k +
                                           100 * channels + 10 * filters +
                                           time));
  Tensor x = RandomTensor({kN, channels, time}, rng);
  Tensor w = RandomTensor({filters, channels, k}, rng);
  for (double& v : w.data()) {
    if (rng.Bernoulli(0.25)) v = 0.0;
  }
  Tensor dy = RandomTensor({kN, filters, time}, rng);
  const Tensor dx_prior = RandomTensor({kN, channels, time}, rng);
  const auto wi = static_cast<size_t>(rng.Index(static_cast<int>(w.numel())));
  const auto gi = static_cast<size_t>(rng.Index(static_cast<int>(dy.numel())));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  switch (poison) {
    case Poison::kNone: break;
    case Poison::kInfWeight: w[wi] = -kInf; break;
    case Poison::kNanWeight: w[wi] = kNan; break;
    case Poison::kInfGrad: dy[gi] = kInf; break;
    case Poison::kNanGrad: dy[gi] = kNan; break;
  }
  const ConvResult want = ReferenceConv1dSame(x, w, dilation, dy, dx_prior);

  std::vector<core::kernels::Backend> backends = {
      core::kernels::Backend::kScalar};
  if (core::kernels::SimdAvailable()) {
    backends.push_back(core::kernels::Backend::kSimd);
  }
  for (core::kernels::Backend backend : backends) {
    core::kernels::SetBackend(backend);
    for (int threads : {1, 2, 8}) {
      core::SetNumThreads(threads);
      const ConvResult got = RunConv1dSame(x, w, dilation, dy, dx_prior);
      const std::string where =
          std::string(core::kernels::BackendName(backend)) +
          " threads=" + std::to_string(threads) +
          " dilation=" + std::to_string(dilation) + " k=" +
          std::to_string(k) + " c=" + std::to_string(channels) + " f=" +
          std::to_string(filters) + " time=" + std::to_string(time) +
          " poison=" + std::to_string(static_cast<int>(poison));
      EXPECT_TRUE(SameBits(want.out, got.out)) << "out " << where;
      EXPECT_TRUE(SameBits(want.dx, got.dx)) << "dx " << where;
      EXPECT_TRUE(SameBits(want.dw, got.dw)) << "dw " << where;
    }
  }
}

TEST(Conv1dSameOracle, BitwiseEqualToClampedLoops) {
  const core::kernels::Backend saved_backend = core::kernels::ActiveBackend();
  const int saved_threads = core::GetNumThreads();
  // k * dilation runs past the series for most short lengths, and k = 1
  // is the unpadded 1x1 path.
  for (int dilation : {1, 2, 4}) {
    for (int k : {1, 2, 4, 5, 16}) {
      for (int channels : {1, 4}) {
        for (int filters : {1, 4}) {
          for (int time = 1; time <= 40; ++time) {
            ExpectConvMatchesReference(dilation, k, channels, filters, time,
                                       Poison::kNone);
          }
          // The non-finite cases run on a spread of lengths.
          for (int time : {1, 2, 5, 17, 40}) {
            for (Poison poison : {Poison::kInfWeight, Poison::kNanWeight,
                                  Poison::kInfGrad, Poison::kNanGrad}) {
              ExpectConvMatchesReference(dilation, k, channels, filters, time,
                                         poison);
            }
          }
        }
      }
    }
  }
  core::kernels::SetBackend(saved_backend);
  core::SetNumThreads(saved_threads);
}

// Two stacked convolutions on an input that needs no gradient, as in
// InceptionTime's first module: the first one's dX pass is skipped, so the
// input's grad stays all zero, while both weight gradients keep the bits
// they have when the input is trainable, on every backend and thread count.
TEST(Conv1dSameOracle, FrozenInputSkipsDxAndKeepsWeightGradients) {
  const core::kernels::Backend saved_backend = core::kernels::ActiveBackend();
  const int saved_threads = core::GetNumThreads();
  std::vector<core::kernels::Backend> backends = {
      core::kernels::Backend::kScalar};
  if (core::kernels::SimdAvailable()) {
    backends.push_back(core::kernels::Backend::kSimd);
  }
  for (int k : {1, 5}) {
    for (int channels : {1, 3}) {
      core::Rng rng(static_cast<std::uint64_t>(70 + 10 * k + channels));
      const Tensor x = RandomTensor({3, channels, 17}, rng);
      const Tensor w1 = RandomTensor({4, channels, k}, rng);
      const Tensor w2 = RandomTensor({2, 4, k}, rng);
      struct Grads {
        Tensor x, w1, w2;
      };
      const auto run = [&](bool x_trainable) {
        Variable vx(x, x_trainable);
        Variable v1(w1, /*requires_grad=*/true);
        Variable v2(w2, /*requires_grad=*/true);
        Mean(Conv1dSame(Conv1dSame(vx, v1, 2), v2)).Backward();
        return Grads{vx.grad(), v1.grad(), v2.grad()};
      };
      std::optional<Grads> first;
      for (core::kernels::Backend backend : backends) {
        core::kernels::SetBackend(backend);
        for (int threads : {1, 2, 8}) {
          core::SetNumThreads(threads);
          SCOPED_TRACE(std::string(core::kernels::BackendName(backend)) +
                       " threads=" + std::to_string(threads) +
                       " k=" + std::to_string(k) +
                       " c=" + std::to_string(channels));
          const Grads trainable = run(true);
          const Grads frozen = run(false);
          EXPECT_TRUE(SameBits(trainable.w1, frozen.w1));
          EXPECT_TRUE(SameBits(trainable.w2, frozen.w2));
          EXPECT_TRUE(SameBits(frozen.x, Tensor(x.shape())));
          EXPECT_FALSE(SameBits(trainable.x, Tensor(x.shape())));
          if (!first) first = frozen;
          EXPECT_TRUE(SameBits(first->w1, frozen.w1));
          EXPECT_TRUE(SameBits(first->w2, frozen.w2));
        }
      }
    }
  }
  core::kernels::SetBackend(saved_backend);
  core::SetNumThreads(saved_threads);
}

TEST(GradCheck, AddChannelBias) {
  core::Rng rng(9);
  std::vector<Tensor> leaves = {RandomTensor({2, 3, 5}, rng),
                                RandomTensor({3}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(AddChannelBias(v[0], v[1]));
  });
}

TEST(GradCheck, MaxPool1dSame) {
  core::Rng rng(10);
  std::vector<Tensor> leaves = {RandomTensor({2, 2, 7}, rng)};
  // Ensure distinct values so the argmax is stable under perturbation.
  for (size_t i = 0; i < leaves[0].numel(); ++i) leaves[0][i] += 0.01 * static_cast<double>(i);
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(MaxPool1dSame(v[0], 3), MaxPool1dSame(v[0], 3)));
  });
}

TEST(GradCheck, GlobalAvgPool) {
  core::Rng rng(11);
  std::vector<Tensor> leaves = {RandomTensor({3, 2, 5}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    return Mean(Mul(GlobalAvgPool(v[0]), GlobalAvgPool(v[0])));
  });
}

TEST(GradCheck, ConcatChannels) {
  core::Rng rng(12);
  std::vector<Tensor> leaves = {RandomTensor({2, 2, 4}, rng),
                                RandomTensor({2, 3, 4}, rng)};
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    Variable cat = ConcatChannels({v[0], v[1]});
    return Mean(Mul(cat, cat));
  });
}

TEST(GradCheck, BatchNormTrain) {
  core::Rng rng(13);
  std::vector<Tensor> leaves = {RandomTensor({3, 2, 4}, rng),
                                RandomTensor({2}, rng, 0.5),
                                RandomTensor({2}, rng, 0.5)};
  leaves[1][0] += 1.0;  // gamma away from zero
  leaves[1][1] += 1.0;
  CheckGradients(leaves, [](std::vector<Variable>& v) {
    Variable out = BatchNormTrain(v[0], v[1], v[2], 1e-5, nullptr, nullptr);
    return Mean(Mul(out, out));
  }, 1e-5);
}

TEST(GradCheck, BatchNormInference) {
  core::Rng rng(14);
  std::vector<Tensor> leaves = {RandomTensor({2, 2, 3}, rng),
                                RandomTensor({2}, rng, 0.5),
                                RandomTensor({2}, rng, 0.5)};
  const std::vector<double> mean = {0.1, -0.2};
  const std::vector<double> var = {1.5, 0.7};
  CheckGradients(leaves, [&mean, &var](std::vector<Variable>& v) {
    Variable out = BatchNormInference(v[0], v[1], v[2], mean, var, 1e-5);
    return Mean(Mul(out, out));
  });
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  core::Rng rng(15);
  std::vector<Tensor> leaves = {RandomTensor({4, 3}, rng)};
  const std::vector<int> labels = {0, 2, 1, 2};
  CheckGradients(leaves, [&labels](std::vector<Variable>& v) {
    return SoftmaxCrossEntropy(v[0], labels);
  });
}

TEST(GradCheck, MseLoss) {
  core::Rng rng(16);
  std::vector<Tensor> leaves = {RandomTensor({3, 4}, rng)};
  const Tensor target = RandomTensor({3, 4}, rng);
  CheckGradients(leaves, [&target](std::vector<Variable>& v) {
    return MseLoss(v[0], target);
  });
}

TEST(GradCheck, BceWithLogits) {
  core::Rng rng(17);
  std::vector<Tensor> leaves = {RandomTensor({3, 3}, rng)};
  Tensor targets({3, 3});
  for (double& v : targets.data()) v = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  CheckGradients(leaves, [&targets](std::vector<Variable>& v) {
    return BceWithLogitsLoss(v[0], targets);
  });
}

TEST(GradCheck, MomentMatchLoss) {
  core::Rng rng(18);
  std::vector<Tensor> leaves = {RandomTensor({6, 3}, rng)};
  const std::vector<double> target_mean = {0.5, -0.3, 0.1};
  const std::vector<double> target_std = {1.2, 0.8, 1.0};
  CheckGradients(leaves, [&](std::vector<Variable>& v) {
    return MomentMatchLoss(v[0], target_mean, target_std);
  }, 1e-5);
}

TEST(Softmax, RowsSumToOne) {
  core::Rng rng(19);
  const Tensor logits = RandomTensor({5, 4}, rng, 3.0);
  const Tensor probs = Softmax(logits);
  for (int i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 4; ++j) {
      EXPECT_GE(probs.at(i, j), 0.0);
      sum += probs.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor logits({1, 2});
  logits.at(0, 0) = 1000.0;
  logits.at(0, 1) = 999.0;
  const Tensor probs = Softmax(logits);
  EXPECT_NEAR(probs.at(0, 0) + probs.at(0, 1), 1.0, 1e-12);
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
}

}  // namespace
}  // namespace tsaug::nn
