#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/trace.h"

namespace tsaug::nn {
namespace {

using NodePtr = std::shared_ptr<Node>;

// The two-branch sigmoid, stable for large |v|: exp never sees a large
// positive argument.
double StableSigmoid(double v) {
  return v >= 0.0 ? 1.0 / (1.0 + std::exp(-v))
                  : std::exp(v) / (1.0 + std::exp(v));
}

// Elementwise unary op helper: forward maps value, backward multiplies the
// upstream gradient by a local derivative computed from (input, output).
template <typename Fwd, typename Dfn>
Variable UnaryOp(const Variable& x, Fwd fwd, Dfn dfn) {
  Tensor out(x.value().shape());
  for (size_t i = 0; i < out.numel(); ++i) out[i] = fwd(x.value()[i]);
  return Variable::FromOp(
      std::move(out), {x.node()}, [dfn](Node& self) {
        Node& parent = *self.parents[0];
        for (size_t i = 0; i < self.grad.numel(); ++i) {
          parent.grad[i] +=
              self.grad[i] * dfn(parent.value[i], self.value[i]);
        }
      });
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  TSAUG_CHECK(a.value().ndim() == 2 && b.value().ndim() == 2);
  const int n = a.value().dim(0);
  const int k = a.value().dim(1);
  const int m = b.value().dim(1);
  TSAUG_CHECK(b.value().dim(0) == k);

  TSAUG_TRACE_SCOPE("nn.matmul");
  Tensor out({n, m});
  // Row-parallel forward: each output row i is an independent slice.
  const auto& kt = core::kernels::Active();
  if (k > 0 && m > 0) {
    core::ParallelFor(0, n,
                      std::max<std::int64_t>(1, 32768 / std::max(1, k * m)),
                      [&](std::int64_t lo, std::int64_t hi) {
      for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
        kt.row_panel_matmul(a.value().row2(i), 1, k, b.value().row2(0), m,
                            out.row2(i), m);
      }
    });
  }
  return Variable::FromOp(std::move(out), {a.node(), b.node()},
                          [n, k, m](Node& self) {
    TSAUG_TRACE_SCOPE("nn.matmul.bwd");
    if (n == 0 || k == 0 || m == 0) return;  // every gradient sum is empty
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    const auto& kb = core::kernels::Active();
    const std::int64_t grain =
        std::max<std::int64_t>(1, 32768 / std::max(1, k * m));
    // dA = dOut * B^T: row i of dA touches only row i of pa.grad. B^T is
    // materialised once (a pure copy, no arithmetic) so the panel kernel
    // streams contiguous rows instead of strided columns of B.
    Tensor bt({m, k});
    for (int p = 0; p < k; ++p) {
      const double* bp = pb.value.row2(p);
      for (int j = 0; j < m; ++j) bt.at(j, p) = bp[j];
    }
    // Row i of dA touches only row i of pa.grad; bt is read-only here.
    core::ParallelFor(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
      for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
        kb.row_panel_matmul(self.grad.row2(i), 1, m, bt.row2(0), k,
                            pa.grad.row2(i), k);
      }
    });
    // dB = A^T * dOut: row p of dB is owned by one chunk; the inner sum
    // over i runs in ascending order regardless of chunking, so the
    // result is bitwise identical at any thread count. Column p of A is
    // a strided vector (stride k) into the panel kernel.
    core::ParallelFor(0, k, std::max<std::int64_t>(1, 32768 / std::max(1, n * m)),
                      [&](std::int64_t lo, std::int64_t hi) {
      for (int p = static_cast<int>(lo); p < static_cast<int>(hi); ++p) {
        kb.row_panel_matmul(pa.value.row2(0) + p, k, n, self.grad.row2(0), m,
                            pb.grad.row2(p), m);
      }
    });
  });
}

Variable Add(const Variable& a, const Variable& b) {
  TSAUG_CHECK(a.value().SameShape(b.value()));
  const auto& kt = core::kernels::Active();
  Tensor out = a.value();
  kt.ew_add_acc(b.value().data().data(), out.data().data(),
                static_cast<std::int64_t>(out.numel()));
  return Variable::FromOp(std::move(out), {a.node(), b.node()},
                          [](Node& self) {
    const auto& kb = core::kernels::Active();
    const std::int64_t n = static_cast<std::int64_t>(self.grad.numel());
    kb.ew_add_acc(self.grad.data().data(), self.parents[0]->grad.data().data(),
                  n);
    kb.ew_add_acc(self.grad.data().data(), self.parents[1]->grad.data().data(),
                  n);
  });
}

Variable AddRowBias(const Variable& x, const Variable& bias) {
  TSAUG_CHECK(x.value().ndim() == 2 && bias.value().ndim() == 1);
  const int n = x.value().dim(0);
  const int f = x.value().dim(1);
  TSAUG_CHECK(bias.value().dim(0) == f);
  Tensor out = x.value();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < f; ++j) out.at(i, j) += bias.value()[static_cast<size_t>(j)];
  }
  return Variable::FromOp(std::move(out), {x.node(), bias.node()},
                          [n, f](Node& self) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < f; ++j) {
        const double g = self.grad.at(i, j);
        self.parents[0]->grad.at(i, j) += g;
        self.parents[1]->grad[static_cast<size_t>(j)] += g;
      }
    }
  });
}

namespace {

// Shared body of the fused gate ops: one graph node computing
// act((a + b) + bias_row). Forward and backward reproduce the unfused
// composition Act(AddRowBias(Add(a, b), bias)) bit for bit: the
// pre-activation sums associate as (a + b) + bias, the activation is the
// same scalar libm call, and each parent gradient receives exactly the
// terms the three unfused nodes would have routed to it, in the same order.
template <bool kTanh>
Variable AddRowBiasActivate(const Variable& a, const Variable& b,
                            const Variable& bias) {
  TSAUG_CHECK(a.value().ndim() == 2 && a.value().SameShape(b.value()));
  TSAUG_CHECK(bias.value().ndim() == 1);
  const int n = a.value().dim(0);
  const int f = a.value().dim(1);
  TSAUG_CHECK(bias.value().dim(0) == f);

  Tensor out({n, f});
  const double* bias0 = bias.value().data().data();
  for (int i = 0; i < n; ++i) {
    const double* ar = a.value().row2(i);
    const double* br = b.value().row2(i);
    double* yr = out.row2(i);
    for (int j = 0; j < f; ++j) {
      const double pre = (ar[j] + br[j]) + bias0[j];
      yr[j] = kTanh ? std::tanh(pre) : StableSigmoid(pre);
    }
  }
  return Variable::FromOp(
      std::move(out), {a.node(), b.node(), bias.node()}, [n, f](Node& self) {
        Node& pa = *self.parents[0];
        Node& pb = *self.parents[1];
        double* gbias = self.parents[2]->grad.data().data();
        for (int i = 0; i < n; ++i) {
          // g * act'(y) fans out to both inputs and the bias (rows
          // ascending, matching the unfused order).
          const double* g = self.grad.row2(i);
          const double* y = self.value.row2(i);
          double* ga = pa.grad.row2(i);
          double* gb = pb.grad.row2(i);
          for (int j = 0; j < f; ++j) {
            const double local = kTanh ? g[j] * (1.0 - y[j] * y[j])
                                       : g[j] * (y[j] * (1.0 - y[j]));
            ga[j] += local;
            gb[j] += local;
            gbias[j] += local;
          }
        }
      });
}

}  // namespace

Variable AddRowBiasSigmoid(const Variable& a, const Variable& b,
                           const Variable& bias) {
  return AddRowBiasActivate<false>(a, b, bias);
}

Variable AddRowBiasTanh(const Variable& a, const Variable& b,
                        const Variable& bias) {
  return AddRowBiasActivate<true>(a, b, bias);
}

Variable Sub(const Variable& a, const Variable& b) {
  TSAUG_CHECK(a.value().SameShape(b.value()));
  Tensor out(a.value().shape());
  for (size_t i = 0; i < out.numel(); ++i) {
    out[i] = a.value()[i] - b.value()[i];
  }
  return Variable::FromOp(std::move(out), {a.node(), b.node()},
                          [](Node& self) {
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    for (size_t i = 0; i < self.grad.numel(); ++i) {
      pa.grad[i] += self.grad[i];
      pb.grad[i] -= self.grad[i];
    }
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  TSAUG_CHECK(a.value().SameShape(b.value()));
  Tensor out(a.value().shape());
  for (size_t i = 0; i < out.numel(); ++i) {
    out[i] = a.value()[i] * b.value()[i];
  }
  return Variable::FromOp(std::move(out), {a.node(), b.node()},
                          [](Node& self) {
    Node& pa = *self.parents[0];
    Node& pb = *self.parents[1];
    for (size_t i = 0; i < self.grad.numel(); ++i) {
      pa.grad[i] += self.grad[i] * pb.value[i];
      pb.grad[i] += self.grad[i] * pa.value[i];
    }
  });
}

Variable ScaleBy(const Variable& x, double s) {
  return UnaryOp(
      x, [s](double v) { return v * s; }, [s](double, double) { return s; });
}

Variable AddConst(const Variable& x, double c) {
  Tensor out(x.value().shape());
  for (size_t i = 0; i < out.numel(); ++i) out[i] = x.value()[i] + c;
  return Variable::FromOp(std::move(out), {x.node()}, [](Node& self) {
    Node& parent = *self.parents[0];
    for (size_t i = 0; i < self.grad.numel(); ++i) {
      parent.grad[i] += self.grad[i];
    }
  });
}

Variable OneMinus(const Variable& x) {
  Tensor out(x.value().shape());
  for (size_t i = 0; i < out.numel(); ++i) out[i] = 1.0 - x.value()[i];
  return Variable::FromOp(std::move(out), {x.node()}, [](Node& self) {
    Node& parent = *self.parents[0];
    for (size_t i = 0; i < self.grad.numel(); ++i) {
      parent.grad[i] -= self.grad[i];
    }
  });
}

Variable Sigmoid(const Variable& x) {
  return UnaryOp(
      x, StableSigmoid, [](double, double y) { return y * (1.0 - y); });
}

Variable Tanh(const Variable& x) {
  return UnaryOp(
      x, [](double v) { return std::tanh(v); },
      [](double, double y) { return 1.0 - y * y; });
}

Variable Relu(const Variable& x) {
  const auto& kt = core::kernels::Active();
  Tensor out(x.value().shape());
  kt.ew_relu(x.value().data().data(), out.data().data(),
             static_cast<std::int64_t>(out.numel()));
  return Variable::FromOp(std::move(out), {x.node()}, [](Node& self) {
    core::kernels::Active().ew_relu_bwd_acc(
        self.grad.data().data(), self.parents[0]->value.data().data(),
        self.parents[0]->grad.data().data(),
        static_cast<std::int64_t>(self.grad.numel()));
  });
}

Variable Mean(const Variable& x) {
  const size_t n = x.value().numel();
  TSAUG_CHECK(n > 0);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += x.value()[i];
  return Variable::FromOp(Tensor::Scalar(sum / static_cast<double>(n)),
                          {x.node()}, [n](Node& self) {
    const double g = self.grad[0] / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) self.parents[0]->grad[i] += g;
  });
}

Variable Sqrt(const Variable& x, double eps) {
  return UnaryOp(
      x, [eps](double v) { return std::sqrt(std::max(0.0, v) + eps); },
      [](double, double y) { return 0.5 / y; });
}

Variable Exp(const Variable& x) {
  return UnaryOp(
      x, [](double v) { return std::exp(v); },
      [](double, double y) { return y; });
}

Variable Reshape(const Variable& x, std::vector<int> shape) {
  Tensor out(shape);
  TSAUG_CHECK(out.numel() == x.value().numel());
  out.data() = x.value().data();
  return Variable::FromOp(std::move(out), {x.node()}, [](Node& self) {
    for (size_t i = 0; i < self.grad.numel(); ++i) {
      self.parents[0]->grad[i] += self.grad[i];
    }
  });
}

Variable SelectTime(const Variable& x, int t) {
  TSAUG_CHECK(x.value().ndim() == 3);
  const int n = x.value().dim(0);
  const int time = x.value().dim(1);
  const int f = x.value().dim(2);
  TSAUG_CHECK(t >= 0 && t < time);
  Tensor out({n, f});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < f; ++j) out.at(i, j) = x.value().at(i, t, j);
  }
  return Variable::FromOp(std::move(out), {x.node()}, [n, f, t](Node& self) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < f; ++j) {
        self.parents[0]->grad.at(i, t, j) += self.grad.at(i, j);
      }
    }
  });
}

Variable StackTime(const std::vector<Variable>& steps) {
  TSAUG_CHECK(!steps.empty());
  const int n = steps[0].value().dim(0);
  const int f = steps[0].value().dim(1);
  const int time = static_cast<int>(steps.size());
  Tensor out({n, time, f});
  std::vector<NodePtr> nodes;
  for (int t = 0; t < time; ++t) {
    TSAUG_CHECK(steps[static_cast<size_t>(t)].value().ndim() == 2 && steps[static_cast<size_t>(t)].value().dim(0) == n &&
                steps[static_cast<size_t>(t)].value().dim(1) == f);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < f; ++j) out.at(i, t, j) = steps[static_cast<size_t>(t)].value().at(i, j);
    }
    nodes.push_back(steps[static_cast<size_t>(t)].node());
  }
  return Variable::FromOp(std::move(out), std::move(nodes),
                          [n, f, time](Node& self) {
    for (int t = 0; t < time; ++t) {
      Node& parent = *self.parents[static_cast<size_t>(t)];
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < f; ++j) {
          parent.grad.at(i, j) += self.grad.at(i, t, j);
        }
      }
    }
  });
}

namespace {

// Copies `rows` contiguous rows of length `time` into `dst`, whose rows are
// `padded` long and start with `offset` zeros. The caller zero-fills `dst`
// once; later copies overwrite only the interiors, so the pads stay zero.
void PadRows(const double* src, int rows, int time, int offset, int padded,
             double* dst) {
  for (int r = 0; r < rows; ++r) {
    std::copy(src + static_cast<std::ptrdiff_t>(r) * time,
              src + static_cast<std::ptrdiff_t>(r + 1) * time,
              dst + static_cast<std::ptrdiff_t>(r) * padded + offset);
  }
}

bool AllFinite(const double* p, int n) {
  for (int j = 0; j < n; ++j) {
    if (!std::isfinite(p[j])) return false;
  }
  return true;
}

// The clamped per-tap loop for a row whose taps are not all finite, where a
// padded `w * 0` would be NaN: dst[t] += w[tap] * src[t + shift] over the
// in-range t only, with shift = sign * (tap * dilation - pad_left). The
// forward pass uses sign +1 (src = x), dX uses sign -1 (src = dY).
void AddTapsClamped(const core::kernels::KernelTable& kt, const double* w,
                    int k, int dilation, int pad_left, int sign,
                    const double* src, double* dst, int time) {
  for (int tap = 0; tap < k; ++tap) {
    const int shift = sign * (tap * dilation - pad_left);
    const int t_lo = std::max(0, -shift);
    const int t_hi = std::min(time, time - shift);
    if (t_lo >= t_hi) continue;
    kt.row_panel_matmul(w + tap, 1, 1, src + t_lo + shift, 0, dst + t_lo,
                        t_hi - t_lo);
  }
}

// finite[r] says whether the k taps of weight row r (of `rows`) are finite.
std::vector<char> FiniteRows(const double* w, int rows, int k) {
  std::vector<char> finite(static_cast<size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    finite[static_cast<size_t>(r)] =
        AllFinite(w + static_cast<std::ptrdiff_t>(r) * k, k);
  }
  return finite;
}

}  // namespace

// Conv1dSame runs on zero-padded rows: each row gets (k-1)*dilation zeros,
// pad_left of them in front, so every tap of every output reads in bounds
// and one kernel call covers all k taps of an (output row, input row) pair.
// A 1x1 convolution has no padding, so there one call covers every input
// row. The bits are those of skipping out-of-range taps: each accumulator
// (a fresh Tensor, Node::EnsureGrad, the dot_panel sum) starts at +0.0 and
// is only ever added to, so under round-to-nearest it is never -0, and
// adding a padded w * 0 = +-0 leaves it exact. Only a non-finite factor
// breaks this (Inf * 0 = NaN): a weight row (forward, dX) or upstream
// gradient row (dW) that is not all finite takes AddTapsClamped or a
// clamped dot instead.
Variable Conv1dSame(const Variable& x, const Variable& w, int dilation) {
  TSAUG_CHECK(x.value().ndim() == 3 && w.value().ndim() == 3);
  TSAUG_CHECK(dilation >= 1);
  const int n = x.value().dim(0);
  const int c = x.value().dim(1);
  const int time = x.value().dim(2);
  const int f = w.value().dim(0);
  const int k = w.value().dim(2);
  TSAUG_CHECK(w.value().dim(1) == c);

  const int span = std::max(0, (k - 1) * dilation);
  const int pad_left = span / 2;
  const int padded = time + span;
  TSAUG_TRACE_SCOPE("nn.conv1d");
  Tensor out({n, f, time});
  // Sample-parallel forward: out[i, :, :] is an independent slice, and each
  // output element sums its (ch, tap) terms in ascending order.
  const auto& kt = core::kernels::Active();
  const double* wd = w.value().data().data();
  const std::vector<char> finite_w = FiniteRows(wd, f * c, k);
  core::ParallelFor(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<double> xp(k > 1 ? static_cast<size_t>(c * padded) : 0, 0.0);
    for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
      if (k == 1) {
        for (int o = 0; o < f; ++o) {
          kt.row_panel_matmul(wd + o * c, 1, c, x.value().row3(i, 0), time,
                              out.row3(i, o), time);
        }
        continue;
      }
      PadRows(x.value().row3(i, 0), c, time, pad_left, padded, xp.data());
      for (int o = 0; o < f; ++o) {
        for (int ch = 0; ch < c; ++ch) {
          const int row = o * c + ch;
          const double* wr = wd + row * k;
          if (finite_w[static_cast<size_t>(row)]) {
            kt.row_panel_matmul(wr, 1, k, xp.data() + ch * padded, dilation,
                                out.row3(i, o), time);
          } else {
            AddTapsClamped(kt, wr, k, dilation, pad_left, 1,
                           x.value().row3(i, ch), out.row3(i, o), time);
          }
        }
      }
    }
  });
  return Variable::FromOp(
      std::move(out), {x.node(), w.node()},
      [n, c, time, f, k, span, pad_left, padded, dilation](Node& self) {
        TSAUG_TRACE_SCOPE("nn.conv1d.bwd");
        Node& px = *self.parents[0];
        Node& pw = *self.parents[1];
        const auto& kb = core::kernels::Active();
        const double* w_data = pw.value.data().data();
        const std::vector<char> w_finite = FiniteRows(w_data, f * c, k);
        // Two passes with disjoint gradient ownership: dX slices by
        // sample, dW slices by output filter. Within each owned element
        // the accumulation order is fixed (dX: ascending (o, tap); dW:
        // ascending i, each term an ascending-t dot from +0.0), so both
        // passes are bitwise deterministic at any thread count. An input that
        // needs no gradient (the network's input batch, a pooled input)
        // gets none: its grad stays the zeros EnsureGrad made.
        if (px.requires_grad) {
          core::ParallelFor(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
            // dY rows are padded mirror-wise: dx[s] reads dy[s - shift], so
            // the taps walk the padded row backwards (ldb = -dilation).
            std::vector<double> gp(k > 1 ? static_cast<size_t>(f * padded) : 0,
                                   0.0);
            for (int i = static_cast<int>(lo); i < static_cast<int>(hi); ++i) {
              if (k == 1) {
                for (int ch = 0; ch < c; ++ch) {
                  kb.row_panel_matmul(w_data + ch, c, f, self.grad.row3(i, 0),
                                      time, px.grad.row3(i, ch), time);
                }
                continue;
              }
              PadRows(self.grad.row3(i, 0), f, time, span - pad_left, padded,
                      gp.data());
              for (int ch = 0; ch < c; ++ch) {
                for (int o = 0; o < f; ++o) {
                  const int row = o * c + ch;
                  const double* wr = w_data + row * k;
                  if (w_finite[static_cast<size_t>(row)]) {
                    kb.row_panel_matmul(wr, 1, k, gp.data() + o * padded + span,
                                        -dilation, px.grad.row3(i, ch), time);
                  } else {
                    AddTapsClamped(kb, wr, k, dilation, pad_left, -1,
                                   self.grad.row3(i, o), px.grad.row3(i, ch),
                                   time);
                  }
                }
              }
            }
          });
        }
        // Every filter reads every input row, so dW builds the padded input
        // once and shares it read-only; a 1x1 convolution reads x itself.
        std::vector<double> xp;
        const double* xrows = px.value.data().data();
        int stride = time;
        if (k > 1) {
          xp.assign(static_cast<size_t>(n) * static_cast<size_t>(c * padded),
                    0.0);
          PadRows(xrows, n * c, time, pad_left, padded, xp.data());
          xrows = xp.data();
          stride = padded;
        }
        // dW pass: each output filter o owns pw.grad[o, :, :] and adds its
        // samples in ascending-i order.
        core::ParallelFor(0, f, 1, [&](std::int64_t lo, std::int64_t hi) {
          std::vector<double> taps(static_cast<size_t>(k == 1 ? c : k));
          for (int o = static_cast<int>(lo); o < static_cast<int>(hi); ++o) {
            double* gw = pw.grad.row3(o, 0);
            for (int i = 0; i < n; ++i) {
              const double* g = self.grad.row3(i, o);
              const double* xi =
                  xrows + static_cast<std::ptrdiff_t>(i) * c * stride;
              if (k == 1) {
                kb.dot_panel(g, 0, 1, xi, stride, c, time, taps.data(), 0);
                kb.ew_add_acc(taps.data(), gw, c);
                continue;
              }
              const bool finite_g = AllFinite(g, time);
              for (int ch = 0; ch < c; ++ch) {
                if (finite_g) {
                  kb.dot_panel(g, 0, 1, xi + ch * stride, dilation, k, time,
                               taps.data(), 0);
                } else {
                  for (int tap = 0; tap < k; ++tap) {
                    const int shift = tap * dilation - pad_left;
                    const int t_lo = std::max(0, -shift);
                    const int t_hi = std::min(time, time - shift);
                    double& dw = taps[static_cast<size_t>(tap)];
                    dw = 0.0;
                    if (t_lo >= t_hi) continue;
                    kb.dot_panel(g + t_lo, 0, 1,
                                 px.value.row3(i, ch) + t_lo + shift, 0, 1,
                                 t_hi - t_lo, &dw, 0);
                  }
                }
                kb.ew_add_acc(taps.data(), gw + ch * k, k);
              }
            }
          }
        });
      });
}

Variable MaxPool1dSame(const Variable& x, int window) {
  TSAUG_CHECK(x.value().ndim() == 3 && window >= 1);
  const int n = x.value().dim(0);
  const int c = x.value().dim(1);
  const int time = x.value().dim(2);
  const int pad_left = (window - 1) / 2;

  Tensor out({n, c, time});
  auto argmax = std::make_shared<std::vector<int>>(out.numel());
  size_t flat = 0;
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      for (int t = 0; t < time; ++t, ++flat) {
        const int lo = std::max(0, t - pad_left);
        const int hi = std::min(time, t - pad_left + window);
        int best = lo;
        double best_v = x.value().at(i, ch, lo);
        for (int s = lo + 1; s < hi; ++s) {
          const double v = x.value().at(i, ch, s);
          if (v > best_v) {
            best_v = v;
            best = s;
          }
        }
        out.at(i, ch, t) = best_v;
        (*argmax)[flat] = best;
      }
    }
  }
  return Variable::FromOp(std::move(out), {x.node()},
                          [n, c, time, argmax](Node& self) {
    size_t idx = 0;
    for (int i = 0; i < n; ++i) {
      for (int ch = 0; ch < c; ++ch) {
        for (int t = 0; t < time; ++t, ++idx) {
          self.parents[0]->grad.at(i, ch, (*argmax)[idx]) += self.grad[idx];
        }
      }
    }
  });
}

Variable GlobalAvgPool(const Variable& x) {
  TSAUG_CHECK(x.value().ndim() == 3);
  const int n = x.value().dim(0);
  const int c = x.value().dim(1);
  const int time = x.value().dim(2);
  Tensor out({n, c});
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      double sum = 0.0;
      for (int t = 0; t < time; ++t) sum += x.value().at(i, ch, t);
      out.at(i, ch) = sum / time;
    }
  }
  return Variable::FromOp(std::move(out), {x.node()}, [n, c, time](Node& self) {
    for (int i = 0; i < n; ++i) {
      for (int ch = 0; ch < c; ++ch) {
        const double g = self.grad.at(i, ch) / time;
        for (int t = 0; t < time; ++t) {
          self.parents[0]->grad.at(i, ch, t) += g;
        }
      }
    }
  });
}

Variable ConcatChannels(const std::vector<Variable>& parts) {
  TSAUG_CHECK(!parts.empty());
  const int n = parts[0].value().dim(0);
  const int time = parts[0].value().dim(2);
  int total_c = 0;
  std::vector<NodePtr> nodes;
  std::vector<int> widths;
  for (const Variable& p : parts) {
    TSAUG_CHECK(p.value().ndim() == 3 && p.value().dim(0) == n &&
                p.value().dim(2) == time);
    widths.push_back(p.value().dim(1));
    total_c += widths.back();
    nodes.push_back(p.node());
  }
  Tensor out({n, total_c, time});
  int offset = 0;
  for (size_t idx = 0; idx < parts.size(); ++idx) {
    const Tensor& v = parts[idx].value();
    for (int i = 0; i < n; ++i) {
      for (int ch = 0; ch < widths[idx]; ++ch) {
        for (int t = 0; t < time; ++t) {
          out.at(i, offset + ch, t) = v.at(i, ch, t);
        }
      }
    }
    offset += widths[idx];
  }
  return Variable::FromOp(std::move(out), std::move(nodes),
                          [n, time, widths](Node& self) {
    int off = 0;
    for (size_t idx = 0; idx < self.parents.size(); ++idx) {
      Node& parent = *self.parents[idx];
      for (int i = 0; i < n; ++i) {
        for (int ch = 0; ch < widths[idx]; ++ch) {
          for (int t = 0; t < time; ++t) {
            parent.grad.at(i, ch, t) += self.grad.at(i, off + ch, t);
          }
        }
      }
      off += widths[idx];
    }
  });
}

Variable BatchNormTrain(const Variable& x, const Variable& gamma,
                        const Variable& beta, double eps,
                        std::vector<double>* batch_mean,
                        std::vector<double>* batch_var) {
  TSAUG_CHECK(x.value().ndim() == 3);
  const int n = x.value().dim(0);
  const int c = x.value().dim(1);
  const int time = x.value().dim(2);
  TSAUG_CHECK(gamma.value().ndim() == 1 && gamma.value().dim(0) == c);
  TSAUG_CHECK(beta.value().ndim() == 1 && beta.value().dim(0) == c);
  const double m = static_cast<double>(n) * time;
  TSAUG_CHECK(m >= 1.0);

  std::vector<double> mean(static_cast<size_t>(c), 0.0);
  std::vector<double> var(static_cast<size_t>(c), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      for (int t = 0; t < time; ++t) mean[static_cast<size_t>(ch)] += x.value().at(i, ch, t);
    }
  }
  for (double& v : mean) v /= m;
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      for (int t = 0; t < time; ++t) {
        const double d = x.value().at(i, ch, t) - mean[static_cast<size_t>(ch)];
        var[static_cast<size_t>(ch)] += d * d;
      }
    }
  }
  for (double& v : var) v /= m;
  if (batch_mean != nullptr) *batch_mean = mean;
  if (batch_var != nullptr) *batch_var = var;

  auto invstd = std::make_shared<std::vector<double>>(c);
  for (int ch = 0; ch < c; ++ch) {
    (*invstd)[static_cast<size_t>(ch)] = 1.0 / std::sqrt(var[static_cast<size_t>(ch)] + eps);
  }
  // Save the normalised activations for the backward pass.
  auto xhat = std::make_shared<Tensor>(std::vector<int>{n, c, time});
  Tensor out({n, c, time});
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      for (int t = 0; t < time; ++t) {
        const double norm =
            (x.value().at(i, ch, t) - mean[static_cast<size_t>(ch)]) * (*invstd)[static_cast<size_t>(ch)];
        xhat->at(i, ch, t) = norm;
        out.at(i, ch, t) = gamma.value()[static_cast<size_t>(ch)] * norm + beta.value()[static_cast<size_t>(ch)];
      }
    }
  }
  return Variable::FromOp(
      std::move(out), {x.node(), gamma.node(), beta.node()},
      [n, c, time, m, invstd, xhat](Node& self) {
        Node& px = *self.parents[0];
        Node& pgamma = *self.parents[1];
        Node& pbeta = *self.parents[2];
        for (int ch = 0; ch < c; ++ch) {
          double sum_dy = 0.0;
          double sum_dy_xhat = 0.0;
          for (int i = 0; i < n; ++i) {
            for (int t = 0; t < time; ++t) {
              const double g = self.grad.at(i, ch, t);
              sum_dy += g;
              sum_dy_xhat += g * xhat->at(i, ch, t);
            }
          }
          pgamma.grad[static_cast<size_t>(ch)] += sum_dy_xhat;
          pbeta.grad[static_cast<size_t>(ch)] += sum_dy;
          const double scale = pgamma.value[static_cast<size_t>(ch)] * (*invstd)[static_cast<size_t>(ch)];
          for (int i = 0; i < n; ++i) {
            for (int t = 0; t < time; ++t) {
              const double g = self.grad.at(i, ch, t);
              px.grad.at(i, ch, t) +=
                  scale * (g - sum_dy / m -
                           xhat->at(i, ch, t) * sum_dy_xhat / m);
            }
          }
        }
      });
}

Variable BatchNormInference(const Variable& x, const Variable& gamma,
                            const Variable& beta,
                            const std::vector<double>& mean,
                            const std::vector<double>& var, double eps) {
  TSAUG_CHECK(x.value().ndim() == 3);
  const int n = x.value().dim(0);
  const int c = x.value().dim(1);
  const int time = x.value().dim(2);
  TSAUG_CHECK(static_cast<int>(mean.size()) == c &&
              static_cast<int>(var.size()) == c);
  auto invstd = std::make_shared<std::vector<double>>(c);
  for (int ch = 0; ch < c; ++ch) (*invstd)[static_cast<size_t>(ch)] = 1.0 / std::sqrt(var[static_cast<size_t>(ch)] + eps);

  Tensor out({n, c, time});
  auto xhat = std::make_shared<Tensor>(std::vector<int>{n, c, time});
  for (int i = 0; i < n; ++i) {
    for (int ch = 0; ch < c; ++ch) {
      for (int t = 0; t < time; ++t) {
        const double norm = (x.value().at(i, ch, t) - mean[static_cast<size_t>(ch)]) * (*invstd)[static_cast<size_t>(ch)];
        xhat->at(i, ch, t) = norm;
        out.at(i, ch, t) = gamma.value()[static_cast<size_t>(ch)] * norm + beta.value()[static_cast<size_t>(ch)];
      }
    }
  }
  return Variable::FromOp(
      std::move(out), {x.node(), gamma.node(), beta.node()},
      [n, c, time, invstd, xhat](Node& self) {
        // Fixed statistics: the normalisation is affine per channel.
        Node& px = *self.parents[0];
        Node& pgamma = *self.parents[1];
        Node& pbeta = *self.parents[2];
        for (int ch = 0; ch < c; ++ch) {
          const double scale = pgamma.value[static_cast<size_t>(ch)] * (*invstd)[static_cast<size_t>(ch)];
          for (int i = 0; i < n; ++i) {
            for (int t = 0; t < time; ++t) {
              const double g = self.grad.at(i, ch, t);
              px.grad.at(i, ch, t) += g * scale;
              pgamma.grad[static_cast<size_t>(ch)] += g * xhat->at(i, ch, t);
              pbeta.grad[static_cast<size_t>(ch)] += g;
            }
          }
        }
      });
}

Tensor Softmax(const Tensor& logits) {
  TSAUG_CHECK(logits.ndim() == 2);
  const int n = logits.dim(0);
  const int k = logits.dim(1);
  Tensor probs({n, k});
  for (int i = 0; i < n; ++i) {
    double max_logit = logits.at(i, 0);
    for (int j = 1; j < k; ++j) max_logit = std::max(max_logit, logits.at(i, j));
    double sum = 0.0;
    for (int j = 0; j < k; ++j) {
      probs.at(i, j) = std::exp(logits.at(i, j) - max_logit);
      sum += probs.at(i, j);
    }
    for (int j = 0; j < k; ++j) probs.at(i, j) /= sum;
  }
  return probs;
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels) {
  TSAUG_CHECK(logits.value().ndim() == 2);
  const int n = logits.value().dim(0);
  const int k = logits.value().dim(1);
  TSAUG_CHECK(static_cast<int>(labels.size()) == n);

  auto probs = std::make_shared<Tensor>(Softmax(logits.value()));
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    TSAUG_CHECK(labels[static_cast<size_t>(i)] >= 0 && labels[static_cast<size_t>(i)] < k);
    loss -= std::log(std::max(probs->at(i, labels[static_cast<size_t>(i)]), 1e-12));
  }
  loss /= n;
  auto labels_copy = std::make_shared<std::vector<int>>(labels);
  return Variable::FromOp(Tensor::Scalar(loss), {logits.node()},
                          [n, k, probs, labels_copy](Node& self) {
    const double g = self.grad[0] / n;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < k; ++j) {
        const double indicator = (*labels_copy)[static_cast<size_t>(i)] == j ? 1.0 : 0.0;
        self.parents[0]->grad.at(i, j) += g * (probs->at(i, j) - indicator);
      }
    }
  });
}

Variable MseLoss(const Variable& pred, const Tensor& target) {
  TSAUG_CHECK(pred.value().SameShape(target));
  const size_t n = pred.value().numel();
  TSAUG_CHECK(n > 0);
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = pred.value()[i] - target[i];
    loss += d * d;
  }
  loss /= static_cast<double>(n);
  auto target_copy = std::make_shared<Tensor>(target);
  return Variable::FromOp(Tensor::Scalar(loss), {pred.node()},
                          [n, target_copy](Node& self) {
    const double g = self.grad[0] * 2.0 / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      self.parents[0]->grad[i] +=
          g * (self.parents[0]->value[i] - (*target_copy)[i]);
    }
  });
}

Variable BceWithLogitsLoss(const Variable& logits, const Tensor& targets) {
  TSAUG_CHECK(logits.value().SameShape(targets));
  const size_t n = logits.value().numel();
  TSAUG_CHECK(n > 0);
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double z = logits.value()[i];
    const double y = targets[i];
    // max(z,0) - z*y + log(1 + exp(-|z|)): numerically stable BCE.
    loss += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  loss /= static_cast<double>(n);
  auto targets_copy = std::make_shared<Tensor>(targets);
  return Variable::FromOp(Tensor::Scalar(loss), {logits.node()},
                          [n, targets_copy](Node& self) {
    const double g = self.grad[0] / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      const double z = self.parents[0]->value[i];
      const double sigma = z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                                    : std::exp(z) / (1.0 + std::exp(z));
      self.parents[0]->grad[i] += g * (sigma - (*targets_copy)[i]);
    }
  });
}

Variable MomentMatchLoss(const Variable& x,
                         const std::vector<double>& target_mean,
                         const std::vector<double>& target_std) {
  TSAUG_CHECK(x.value().ndim() == 2);
  const int n = x.value().dim(0);
  const int f = x.value().dim(1);
  TSAUG_CHECK(static_cast<int>(target_mean.size()) == f);
  TSAUG_CHECK(static_cast<int>(target_std.size()) == f);
  TSAUG_CHECK(n > 0);
  constexpr double kEps = 1e-6;

  auto mean = std::make_shared<std::vector<double>>(f, 0.0);
  auto stddev = std::make_shared<std::vector<double>>(f, 0.0);
  for (int j = 0; j < f; ++j) {
    double m = 0.0;
    for (int i = 0; i < n; ++i) m += x.value().at(i, j);
    m /= n;
    double v = 0.0;
    for (int i = 0; i < n; ++i) {
      const double d = x.value().at(i, j) - m;
      v += d * d;
    }
    v /= n;
    (*mean)[static_cast<size_t>(j)] = m;
    (*stddev)[static_cast<size_t>(j)] = std::sqrt(v + kEps);
  }
  double loss = 0.0;
  for (int j = 0; j < f; ++j) {
    loss += std::fabs((*stddev)[static_cast<size_t>(j)] - target_std[static_cast<size_t>(j)]);
    loss += std::fabs((*mean)[static_cast<size_t>(j)] - target_mean[static_cast<size_t>(j)]);
  }
  loss /= f;

  auto tmean = std::make_shared<std::vector<double>>(target_mean);
  auto tstd = std::make_shared<std::vector<double>>(target_std);
  return Variable::FromOp(
      Tensor::Scalar(loss), {x.node()},
      [n, f, mean, stddev, tmean, tstd](Node& self) {
        const double g = self.grad[0] / f;
        for (int j = 0; j < f; ++j) {
          const double sign_std =
              (*stddev)[static_cast<size_t>(j)] > (*tstd)[static_cast<size_t>(j)] ? 1.0 : ((*stddev)[static_cast<size_t>(j)] < (*tstd)[static_cast<size_t>(j)] ? -1.0 : 0.0);
          const double sign_mean =
              (*mean)[static_cast<size_t>(j)] > (*tmean)[static_cast<size_t>(j)] ? 1.0 : ((*mean)[static_cast<size_t>(j)] < (*tmean)[static_cast<size_t>(j)] ? -1.0 : 0.0);
          for (int i = 0; i < n; ++i) {
            const double centered =
                self.parents[0]->value.at(i, j) - (*mean)[static_cast<size_t>(j)];
            self.parents[0]->grad.at(i, j) +=
                g * (sign_std * centered / (n * (*stddev)[static_cast<size_t>(j)]) + sign_mean / n);
          }
        }
      });
}

double NumericalGradient(const std::function<double()>& loss_fn, Tensor& leaf,
                         size_t i, double eps) {
  const double saved = leaf[i];
  leaf[i] = saved + eps;
  const double plus = loss_fn();
  leaf[i] = saved - eps;
  const double minus = loss_fn();
  leaf[i] = saved;
  return (plus - minus) / (2.0 * eps);
}

}  // namespace tsaug::nn
