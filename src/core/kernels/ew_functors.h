#ifndef TSAUG_CORE_KERNELS_EW_FUNCTORS_H_
#define TSAUG_CORE_KERNELS_EW_FUNCTORS_H_

#include <cmath>

namespace tsaug::core::kernels {

/// The numerically stable two-branch sigmoid used by nn::Sigmoid and the
/// fused gate kernels. Scalar in both backends (division, addition and
/// std::exp round identically regardless of the instruction set compiled
/// around them), so the transcendental can never diverge across backends.
inline double StableSigmoid(double v) {
  return v >= 0.0 ? 1.0 / (1.0 + std::exp(-v))
                  : std::exp(v) / (1.0 + std::exp(v));
}

/// Elementwise functors shared by both kernel backends (the cavs
/// UnaryOp/BinaryOp idiom): each functor's `operator()` is a template
/// over the value type V, so ONE definition instantiates the scalar
/// backend (V = double) and the SIMD backend (V = Vec4d, a wrapper with
/// overloaded +,-,* defined in kernels_simd.cc). Because every functor is
/// pure per-element arithmetic — no reductions, no reordering — the two
/// instantiations round identically and the backends match bitwise.
///
/// `EwMax0` is the one non-arithmetic building block; the double overload
/// lives here and the Vec4d overload next to Vec4d, found by ADL at
/// instantiation time.
inline double EwMax0(double v) { return v > 0.0 ? v : 0.0; }

struct ScaleOp {  // y = x * s
  double s;
  template <typename V>
  V operator()(const V& x) const {
    return x * V(s);
  }
};

struct AddConstOp {  // y = x + c
  double c;
  template <typename V>
  V operator()(const V& x) const {
    return x + V(c);
  }
};

struct OneMinusOp {  // y = 1 - x
  template <typename V>
  V operator()(const V& x) const {
    return V(1.0) - x;
  }
};

struct ReluOp {  // y = x > 0 ? x : 0
  template <typename V>
  V operator()(const V& x) const {
    return EwMax0(x);
  }
};

struct MulOp {  // z = x * y
  template <typename V>
  V operator()(const V& x, const V& y) const {
    return x * y;
  }
};

struct ScaleGradOp {  // y += g * s
  double s;
  template <typename V>
  V operator()(const V& g) const {
    return g * V(s);
  }
};

struct ReluBwdOp {  // y += g * (x > 0 ? 1 : 0)
  template <typename V>
  V operator()(const V& g, const V& x) const {
    // Matches the reference dfn g * (x > 0.0 ? 1.0 : 0.0): multiplying by
    // the indicator is NOT bitwise equal to selecting g (g * 0.0 flips the
    // sign of a negative zero and propagates NaN), so both backends keep
    // the multiply.
    return g * Indicator(x);
  }

 private:
  static double Indicator(double x) { return x > 0.0 ? 1.0 : 0.0; }
  template <typename V>
  static V Indicator(const V& x) {
    return V::GreaterThanZeroMask01(x);
  }
};

struct TanhBwdOp {  // g * (1 - y*y), y the saved tanh output
  template <typename V>
  V operator()(const V& g, const V& y) const {
    return g * (V(1.0) - y * y);
  }
};

struct SigmoidBwdOp {  // g * (y * (1 - y)), y the saved sigmoid output
  template <typename V>
  V operator()(const V& g, const V& y) const {
    return g * (y * (V(1.0) - y));
  }
};

struct Add3Op {  // (a + b) + c, the fused-gate pre-activation
  template <typename V>
  V operator()(const V& a, const V& b, const V& c) const {
    return (a + b) + c;
  }
};

}  // namespace tsaug::core::kernels

#endif  // TSAUG_CORE_KERNELS_EW_FUNCTORS_H_
