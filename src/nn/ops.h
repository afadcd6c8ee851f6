#ifndef TSAUG_NN_OPS_H_
#define TSAUG_NN_OPS_H_

#include <vector>

#include "nn/autograd.h"

namespace tsaug::nn {

// ---------------------------------------------------------------------------
// Elementwise and linear algebra ops. All ops build graph nodes, so calling
// Backward() on any scalar downstream differentiates through them.
// ---------------------------------------------------------------------------

/// Matrix product of [n,k] x [k,m] -> [n,m].
Variable MatMul(const Variable& a, const Variable& b);

/// Elementwise sum of same-shape tensors.
Variable Add(const Variable& a, const Variable& b);

/// [n,f] + broadcast of [f] over rows.
Variable AddRowBias(const Variable& x, const Variable& bias);

/// Elementwise difference / product of same-shape tensors.
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);

/// x * s and x + c for scalar constants.
Variable ScaleBy(const Variable& x, double s);
Variable AddConst(const Variable& x, double c);

/// 1 - x (the GRU update-gate complement).
Variable OneMinus(const Variable& x);

/// Activations.
Variable Sigmoid(const Variable& x);
Variable Tanh(const Variable& x);
Variable Relu(const Variable& x);

/// Fused gate forward: act((a + b) + broadcast of bias [f] over rows),
/// a single graph node with one loop per pass. Bitwise-identical (values
/// and gradients) to the unfused composition Act(AddRowBias(Add(a, b),
/// bias)) — the recurrent cells use the fused form to skip three
/// intermediate tensors per gate.
Variable AddRowBiasSigmoid(const Variable& a, const Variable& b,
                           const Variable& bias);
Variable AddRowBiasTanh(const Variable& a, const Variable& b,
                        const Variable& bias);

/// Mean of all entries -> scalar.
Variable Mean(const Variable& x);

/// Elementwise sqrt(x + eps); used for TimeGAN's root losses.
Variable Sqrt(const Variable& x, double eps = 1e-12);

/// Elementwise exp(x); used by the VAE reparameterisation and KL term.
Variable Exp(const Variable& x);

/// Relabels the shape without moving data (element counts must match);
/// the gradient passes through unchanged.
Variable Reshape(const Variable& x, std::vector<int> shape);

// ---------------------------------------------------------------------------
// Sequence ops on [batch, time, features] tensors (GRU plumbing).
// ---------------------------------------------------------------------------

/// Extracts time step `t`: [n,T,f] -> [n,f].
Variable SelectTime(const Variable& x, int t);

/// Stacks T step tensors [n,f] into [n,T,f].
Variable StackTime(const std::vector<Variable>& steps);

// ---------------------------------------------------------------------------
// Convolutional ops on [batch, channels, time] tensors.
// ---------------------------------------------------------------------------

/// 1-D convolution with 'same' padding: x [n,c,T] * w [f,c,k] -> [n,f,T].
/// `dilation` spaces kernel taps (k-1)*dilation apart, as in InceptionTime.
Variable Conv1dSame(const Variable& x, const Variable& w, int dilation = 1);

/// [n,c,T] + broadcast of [c] over batch and time.
Variable AddChannelBias(const Variable& x, const Variable& bias);

/// Max pooling with 'same' padding and stride 1 over the time axis.
Variable MaxPool1dSame(const Variable& x, int window);

/// Global average pooling over time: [n,c,T] -> [n,c].
Variable GlobalAvgPool(const Variable& x);

/// Concatenation of [n,c_i,T] tensors along the channel axis.
Variable ConcatChannels(const std::vector<Variable>& parts);

/// Batch normalisation over (batch, time) per channel, training mode:
/// y = gamma * (x - mu) / sqrt(var + eps) + beta, with the full backward
/// through mu and var. `batch_mean`/`batch_var` receive the minibatch
/// statistics so the layer can maintain running averages.
Variable BatchNormTrain(const Variable& x, const Variable& gamma,
                        const Variable& beta, double eps,
                        std::vector<double>* batch_mean,
                        std::vector<double>* batch_var);

/// Batch normalisation in inference mode with fixed statistics.
Variable BatchNormInference(const Variable& x, const Variable& gamma,
                            const Variable& beta,
                            const std::vector<double>& mean,
                            const std::vector<double>& var, double eps);

// ---------------------------------------------------------------------------
// Losses (scalar-valued).
// ---------------------------------------------------------------------------

/// Mean softmax cross-entropy of logits [n,k] against integer labels.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels);

/// Row-wise softmax probabilities of a logits tensor (forward-only helper).
Tensor Softmax(const Tensor& logits);

/// Mean squared error against a constant target of the same shape.
Variable MseLoss(const Variable& pred, const Tensor& target);

/// Mean binary cross-entropy with logits against constant targets in [0,1].
/// Uses the stable log-sum-exp form.
Variable BceWithLogitsLoss(const Variable& logits, const Tensor& targets);

/// TimeGAN's moment-matching loss between a generated batch [n,f] and
/// target per-feature moments: mean_f |std(x)_f - target_std_f| +
/// mean_f |mean(x)_f - target_mean_f|.
Variable MomentMatchLoss(const Variable& x,
                         const std::vector<double>& target_mean,
                         const std::vector<double>& target_std);

// ---------------------------------------------------------------------------
// Numerical gradient checking (test utility).
// ---------------------------------------------------------------------------

/// Central-difference derivative of `loss_fn` (which must rebuild the graph
/// from the leaf values on every call) with respect to `leaf`'s entry `i`.
double NumericalGradient(const std::function<double()>& loss_fn, Tensor& leaf,
                         size_t i, double eps = 1e-5);

}  // namespace tsaug::nn

#endif  // TSAUG_NN_OPS_H_
