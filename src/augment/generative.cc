#include "augment/generative.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/preprocess.h"
#include "linalg/decomposition.h"

namespace tsaug::augment {
namespace {

// Rectangular flattened class members: rows of a matrix. The class has at
// least one member: Augmenter::TryGenerate rejects an empty class first.
linalg::Matrix ClassMatrix(const core::Dataset& train, int label,
                           int* channels, int* length) {
  *channels = train.num_channels();
  *length = train.max_length();
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < train.size(); ++i) {
    if (train.label(i) != label) continue;
    core::TimeSeries s = core::ImputeLinear(train.series(i));
    if (s.length() != *length) s = core::ResampleToLength(s, *length);
    rows.push_back(s.Flatten());
  }
  return linalg::Matrix::FromRowVectors(rows);
}

}  // namespace

core::Status AppendGaussianDraws(const linalg::Matrix& points, int count,
                                 int channels, int length,
                                 const std::string& what, core::Rng& rng,
                                 std::vector<core::TimeSeries>& out) {
  const int dims = points.cols();
  const std::vector<double> mean = points.ColMeans();
  linalg::Matrix sigma = linalg::ShrinkageCovariance(points);
  linalg::AddDiagonal(sigma, 1e-9);
  linalg::Matrix factor = sigma;
  if (!linalg::CholeskyFactor(factor)) {
    linalg::AddDiagonal(sigma, 1e-4);
    factor = sigma;
    if (!linalg::CholeskyFactor(factor)) {
      return core::SingularError(
          what + " covariance not SPD after regularisation");
    }
  }

  for (int i = 0; i < count; ++i) {
    std::vector<double> z(static_cast<size_t>(dims));
    for (double& v : z) v = rng.Normal();
    std::vector<double> sample = mean;
    for (int row = 0; row < dims; ++row) {
      double dot = 0.0;
      const double* l = factor.row_data(row);
      for (int col = 0; col <= row; ++col) dot += l[col] * z[static_cast<size_t>(col)];
      sample[static_cast<size_t>(row)] += dot;
    }
    out.push_back(core::TimeSeries::FromFlat(sample, channels, length));
  }
  return core::OkStatus();
}

core::StatusOr<std::vector<core::TimeSeries>> GaussianGenerator::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  int channels = 0;
  int length = 0;
  const linalg::Matrix points = ClassMatrix(train, label, &channels, &length);
  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  if (points.rows() < 2) {
    // One sample: no covariance; jitter lightly.
    for (int i = 0; i < count; ++i) {
      std::vector<double> sample = points.Row(0);
      for (double& v : sample) v += rng.Normal(0.0, 1e-3);
      out.push_back(core::TimeSeries::FromFlat(sample, channels, length));
    }
    return out;
  }

  TSAUG_RETURN_IF_ERROR(AppendGaussianDraws(
      points, count, channels, length, "gaussian_gen: class", rng, out));
  return out;
}

core::StatusOr<std::vector<double>> FitAutoregressive(
    const std::vector<double>& signal, int order,
    double* innovation_variance) {
  TSAUG_CHECK(order >= 1);
  const int n = static_cast<int>(signal.size());
  TSAUG_CHECK(n > order + 1);

  // Autocovariances r_0..r_p.
  std::vector<double> r(static_cast<size_t>(order + 1), 0.0);
  for (int lag = 0; lag <= order; ++lag) {
    for (int t = lag; t < n; ++t) r[static_cast<size_t>(lag)] += signal[static_cast<size_t>(t)] * signal[static_cast<size_t>(t - lag)];
    r[static_cast<size_t>(lag)] /= n;
  }
  if (r[0] <= 1e-12) {
    // Flat signal: no dynamics.
    if (innovation_variance != nullptr) *innovation_variance = 0.0;
    return std::vector<double>(static_cast<size_t>(order), 0.0);
  }

  // Yule-Walker: R phi = r[1..p], R Toeplitz of r[0..p-1].
  linalg::Matrix toeplitz(order, order);
  linalg::Matrix rhs(order, 1);
  for (int i = 0; i < order; ++i) {
    for (int j = 0; j < order; ++j) toeplitz(i, j) = r[static_cast<size_t>(std::abs(i - j))];
    rhs(i, 0) = r[static_cast<size_t>(i + 1)];
  }
  core::StatusOr<linalg::Matrix> solved =
      linalg::TryCholeskySolveJittered(toeplitz, rhs, 1e-8 * r[0]);
  if (!solved.ok()) return solved.status();
  const linalg::Matrix& solution = *solved;

  std::vector<double> phi(static_cast<size_t>(order));
  double variance = r[0];
  for (int i = 0; i < order; ++i) {
    phi[static_cast<size_t>(i)] = solution(i, 0);
    variance -= phi[static_cast<size_t>(i)] * r[static_cast<size_t>(i + 1)];
  }
  if (innovation_variance != nullptr) {
    *innovation_variance = std::max(0.0, variance);
  }
  return phi;
}

ArGenerator::ArGenerator(int order) : order_(order) {
  TSAUG_CHECK(order >= 1);
}

core::StatusOr<std::vector<core::TimeSeries>> ArGenerator::DoGenerate(
    const core::Dataset& train, int label, int count, core::Rng& rng) {
  int channels = 0;
  int length = 0;
  const linalg::Matrix points = ClassMatrix(train, label, &channels, &length);
  const std::vector<double> mean = points.ColMeans();  // class mean curve

  // Per-channel AR fit on the pooled residuals around the class mean.
  const int order = std::min(order_, std::max(1, length / 4));
  std::vector<std::vector<double>> phis(static_cast<size_t>(channels));
  std::vector<double> innovation_std(static_cast<size_t>(channels), 0.0);
  for (int c = 0; c < channels; ++c) {
    std::vector<double> pooled;
    pooled.reserve(static_cast<size_t>(points.rows()) * static_cast<size_t>(length));
    for (int i = 0; i < points.rows(); ++i) {
      for (int t = 0; t < length; ++t) {
        const int d = c * length + t;
        pooled.push_back(points(i, d) - mean[static_cast<size_t>(d)]);
      }
    }
    double variance = 0.0;
    if (static_cast<int>(pooled.size()) > order + 1) {
      core::StatusOr<std::vector<double>> phi =
          FitAutoregressive(pooled, order, &variance);
      if (!phi.ok()) {
        core::Status status = phi.status();
        return status.AddContext("ar_gen: channel " + std::to_string(c));
      }
      phis[static_cast<size_t>(c)] = std::move(phi).value();
    } else {
      phis[static_cast<size_t>(c)].assign(static_cast<size_t>(order), 0.0);
      for (double v : pooled) variance += v * v;
      variance /= static_cast<double>(std::max<size_t>(1, pooled.size()));
    }
    innovation_std[static_cast<size_t>(c)] = std::sqrt(std::max(0.0, variance));
  }

  std::vector<core::TimeSeries> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::TimeSeries series(channels, length);
    for (int c = 0; c < channels; ++c) {
      std::vector<double> residual(static_cast<size_t>(length), 0.0);
      for (int t = 0; t < length; ++t) {
        double v = rng.Normal(0.0, innovation_std[static_cast<size_t>(c)]);
        for (int lag = 1; lag <= order && t - lag >= 0; ++lag) {
          v += phis[static_cast<size_t>(c)][static_cast<size_t>(lag - 1)] * residual[static_cast<size_t>(t - lag)];
        }
        residual[static_cast<size_t>(t)] = v;
        series.at(c, t) = mean[static_cast<size_t>(c * length + t)] + v;
      }
    }
    out.push_back(std::move(series));
  }
  return out;
}

}  // namespace tsaug::augment
