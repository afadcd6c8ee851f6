// Numerical gradient checks for every autodiff op: the analytic backward of
// each op is compared against central differences on random inputs. These
// are the load-bearing tests for InceptionTime and TimeGAN correctness.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
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

// An empty tensor's data() may be null, which memcmp must not see.
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         (a.numel() == 0 ||
          std::memcmp(a.data().data(), b.data().data(),
                      a.numel() * sizeof(double)) == 0);
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

// The elementwise ops bit for bit against their defining scalar formulas:
// forward values, and each parent gradient accumulated onto a nonzero
// prior, on inputs that mix normal values with signed zeros, infinities,
// NaN and subnormals, at every length from 0 to 17 (empty, vector body
// and tail), under every backend at 1/2/8 threads.
double ReferenceSigmoid(double v) {
  return v >= 0.0 ? 1.0 / (1.0 + std::exp(-v))
                  : std::exp(v) / (1.0 + std::exp(v));
}

// The NaN of these inputs is the one an invalid operation (inf - inf)
// makes, so every NaN an op reads or makes has the same bits. When both
// operands of an add or multiply are NaN, IEEE 754 leaves open which one
// the result carries, and the compiler may swap the operands (x86 returns
// the first, and a load folded into the second slot reorders them), so two
// NaN bit patterns would test register allocation, not the op.
double InvalidOperationNan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

Tensor MixedTensor(const std::vector<int>& shape, core::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kSpecials[] = {
      0.0,
      -0.0,
      kInf,
      -kInf,
      InvalidOperationNan(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      3e-310,
      -1e-315,
      std::numeric_limits<double>::min(),
      1.0,
      -1.0,
      800.0,
      -800.0,
  };
  const int kNumSpecials = static_cast<int>(std::size(kSpecials));
  Tensor t(shape);
  for (double& v : t.data()) {
    v = rng.Bernoulli(0.35) ? kSpecials[rng.Index(kNumSpecials)]
                            : rng.Normal(0.0, 2.0);
  }
  return t;
}

// One op under test. `uses[p]` names the leaf feeding parent p, so a leaf
// used twice receives both parents' gradients. `reference` writes the
// forward value into y and accumulates every parent's gradient into
// dx[p] (the leaf's buffer, shared when two parents share a leaf).
struct EwOracleCase {
  std::string name;
  std::vector<int> uses;
  bool row_bias;  // parents are (rows x n, rows x n, n), else all n
  std::function<Variable(const std::vector<Variable>&)> op;
  std::function<void(const std::vector<const Tensor*>& x, const Tensor& g,
                     Tensor& y, const std::vector<Tensor*>& dx)>
      reference;
};

std::vector<EwOracleCase> EwOracleCases() {
  using Xs = std::vector<const Tensor*>;
  using Dxs = std::vector<Tensor*>;
  using Vars = std::vector<Variable>;
  using Step = double (*)(double d, double g, double u, double v);
  std::vector<EwOracleCase> cases;
  // Binary ops: y = fwd(a, b), then da = step_a(da, g, a, b) and
  // db = step_b(db, g, a, b), in that order.
  const auto binary = [&cases](const std::string& name,
                               Variable (*op)(const Variable&,
                                              const Variable&),
                               double (*fwd)(double, double), Step step_a,
                               Step step_b) {
    for (const std::vector<int>& uses :
         {std::vector<int>{0, 1}, std::vector<int>{0, 0}}) {
      cases.push_back(
          {name + (uses[1] == 0 ? "(x, x)" : "(a, b)"), uses, false,
           [op](const Vars& p) { return op(p[0], p[1]); },
           [fwd, step_a, step_b](const Xs& x, const Tensor& g, Tensor& y,
                                 const Dxs& dx) {
             for (size_t i = 0; i < y.numel(); ++i) {
               const double a = (*x[0])[i];
               const double b = (*x[1])[i];
               y[i] = fwd(a, b);
               (*dx[0])[i] = step_a((*dx[0])[i], g[i], a, b);
               (*dx[1])[i] = step_b((*dx[1])[i], g[i], a, b);
             }
           }});
    }
  };
  binary(
      "Add", Add, [](double a, double b) { return a + b; },
      [](double d, double g, double, double) { return d + g; },
      [](double d, double g, double, double) { return d + g; });
  binary(
      "Sub", Sub, [](double a, double b) { return a - b; },
      [](double d, double g, double, double) { return d + g; },
      [](double d, double g, double, double) { return d - g; });
  binary(
      "Mul", Mul, [](double a, double b) { return a * b; },
      [](double d, double g, double, double b) { return d + g * b; },
      [](double d, double g, double a, double) { return d + g * a; });
  // Unary ops: y = fwd(x), then dx = step(dx, g, x, y).
  const auto unary = [&cases](const std::string& name,
                              Variable (*op)(const Variable&),
                              double (*fwd)(double), Step step) {
    cases.push_back({name, {0}, false,
                     [op](const Vars& p) { return op(p[0]); },
                     [fwd, step](const Xs& x, const Tensor& g, Tensor& y,
                                 const Dxs& dx) {
                       for (size_t i = 0; i < y.numel(); ++i) {
                         y[i] = fwd((*x[0])[i]);
                         double& d = (*dx[0])[i];
                         d = step(d, g[i], (*x[0])[i], y[i]);
                       }
                     }});
  };
  unary(
      "ScaleBy", [](const Variable& x) { return ScaleBy(x, -1.5); },
      [](double x) { return x * -1.5; },
      [](double d, double g, double, double) { return d + g * -1.5; });
  unary(
      "AddConst", [](const Variable& x) { return AddConst(x, 0.3); },
      [](double x) { return x + 0.3; },
      [](double d, double g, double, double) { return d + g; });
  unary(
      "OneMinus", OneMinus, [](double x) { return 1.0 - x; },
      [](double d, double g, double, double) { return d - g; });
  unary("Sigmoid", Sigmoid, ReferenceSigmoid,
        [](double d, double g, double, double y) {
          return d + g * (y * (1.0 - y));
        });
  unary(
      "Tanh", Tanh, [](double x) { return std::tanh(x); },
      [](double d, double g, double, double y) {
        return d + g * (1.0 - y * y);
      });
  unary(
      "Relu", Relu, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double d, double g, double x, double) {
        return d + g * (x > 0.0 ? 1.0 : 0.0);
      });
  // Fused gates: y = act((a + b) + bias[j]), and the local gradient
  // g * act'(y) goes to a, b and bias, rows ascending.
  for (bool use_tanh : {false, true}) {
    for (const std::vector<int>& uses :
         {std::vector<int>{0, 1, 2}, std::vector<int>{0, 0, 1}}) {
      const std::string name =
          std::string(use_tanh ? "AddRowBiasTanh" : "AddRowBiasSigmoid") +
          (uses[1] == 0 ? "(x, x, bias)" : "(a, b, bias)");
      cases.push_back(
          {name, uses, true,
           [use_tanh](const Vars& p) {
             return use_tanh ? AddRowBiasTanh(p[0], p[1], p[2])
                             : AddRowBiasSigmoid(p[0], p[1], p[2]);
           },
           [use_tanh](const Xs& x, const Tensor& g, Tensor& y,
                      const Dxs& dx) {
             for (int i = 0; i < y.dim(0); ++i) {
               for (int j = 0; j < y.dim(1); ++j) {
                 const double pre = (x[0]->at(i, j) + x[1]->at(i, j)) +
                                    (*x[2])[static_cast<size_t>(j)];
                 const double v =
                     use_tanh ? std::tanh(pre) : ReferenceSigmoid(pre);
                 y.at(i, j) = v;
                 const double local =
                     use_tanh ? g.at(i, j) * (1.0 - v * v)
                              : g.at(i, j) * (v * (1.0 - v));
                 dx[0]->at(i, j) += local;
                 dx[1]->at(i, j) += local;
                 (*dx[2])[static_cast<size_t>(j)] += local;
               }
             }
           }});
    }
  }
  return cases;
}

// Runs the op's forward and its backward closure with upstream gradient
// `g`, each leaf's gradient starting from `priors` as when the leaf also
// feeds another op. Returns the value followed by every leaf's gradient.
std::vector<Tensor> RunEwOp(const EwOracleCase& c,
                            const std::vector<Tensor>& leaves,
                            const std::vector<Tensor>& priors,
                            const Tensor& g) {
  std::vector<Variable> vars;
  for (const Tensor& leaf : leaves) vars.emplace_back(leaf, true);
  std::vector<Variable> parents;
  for (int leaf : c.uses) parents.push_back(vars[static_cast<size_t>(leaf)]);
  Variable y = c.op(parents);
  for (size_t k = 0; k < vars.size(); ++k) vars[k].node()->grad = priors[k];
  Node& node = *y.node();
  node.grad = g;
  node.backward_fn(node);
  std::vector<Tensor> out = {y.value()};
  for (const Variable& v : vars) out.push_back(v.grad());
  return out;
}

TEST(ElementwiseOracle, BitwiseEqualToScalarFormulas) {
  const core::kernels::Backend saved_backend = core::kernels::ActiveBackend();
  const int saved_threads = core::GetNumThreads();
  std::vector<core::kernels::Backend> backends = {
      core::kernels::Backend::kScalar};
  if (core::kernels::SimdAvailable()) {
    backends.push_back(core::kernels::Backend::kSimd);
  }
  constexpr int kRows = 3;
  const std::vector<EwOracleCase> cases = EwOracleCases();
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const EwOracleCase& c = cases[ci];
    for (int n = 0; n <= 17; ++n) {
      core::Rng rng(100 * ci + static_cast<std::uint64_t>(n));
      const int num_leaves =
          *std::max_element(c.uses.begin(), c.uses.end()) + 1;
      std::vector<std::vector<int>> shapes(static_cast<size_t>(num_leaves),
                                           std::vector<int>{n});
      if (c.row_bias) {
        for (size_t p = 0; p + 1 < c.uses.size(); ++p) {
          shapes[static_cast<size_t>(c.uses[p])] = {kRows, n};
        }
      }
      std::vector<Tensor> leaves, priors;
      for (const std::vector<int>& shape : shapes) {
        leaves.push_back(MixedTensor(shape, rng));
        priors.push_back(MixedTensor(shape, rng));
      }
      const Tensor g = MixedTensor(shapes[0], rng);

      std::vector<Tensor> want = {Tensor(shapes[0])};
      for (const Tensor& prior : priors) want.push_back(prior);
      std::vector<const Tensor*> x;
      std::vector<Tensor*> dx;
      for (int leaf : c.uses) {
        x.push_back(&leaves[static_cast<size_t>(leaf)]);
        dx.push_back(&want[static_cast<size_t>(leaf) + 1]);
      }
      c.reference(x, g, want[0], dx);

      for (core::kernels::Backend backend : backends) {
        core::kernels::SetBackend(backend);
        for (int threads : {1, 2, 8}) {
          core::SetNumThreads(threads);
          const std::vector<Tensor> got = RunEwOp(c, leaves, priors, g);
          ASSERT_EQ(got.size(), want.size());
          for (size_t k = 0; k < got.size(); ++k) {
            EXPECT_TRUE(SameBits(want[k], got[k]))
                << c.name << (k == 0 ? " value" : " grad of leaf ")
                << (k == 0 ? "" : std::to_string(k - 1)) << " n=" << n
                << " " << core::kernels::BackendName(backend)
                << " threads=" << threads;
          }
        }
      }
    }
  }
  core::kernels::SetBackend(saved_backend);
  core::SetNumThreads(saved_threads);
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
