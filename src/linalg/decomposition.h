#ifndef TSAUG_LINALG_DECOMPOSITION_H_
#define TSAUG_LINALG_DECOMPOSITION_H_

#include <vector>

#include "core/status.h"
#include "linalg/matrix.h"

namespace tsaug::linalg {

/// In-place Cholesky factorisation of a symmetric positive-definite matrix:
/// on success `a` holds the lower-triangular factor L with A = L L^T (the
/// strict upper triangle is zeroed). Returns false if A is not SPD.
bool CholeskyFactor(Matrix& a);

/// Solves A X = B for SPD A via Cholesky. B's columns are independent
/// right-hand sides. Returns an empty matrix if A is not SPD.
Matrix CholeskySolve(Matrix a, const Matrix& b);

/// Like CholeskySolve but retries with growing diagonal jitter when A is
/// numerically semi-definite (covariance matrices of small samples).
/// Whether A factorises is a property of the input data, so exhausting the
/// jitter schedule is a recoverable kSingular error, not an abort; callers
/// with a recovery policy (e.g. ridge alpha escalation) use this form.
[[nodiscard]] core::StatusOr<Matrix> TryCholeskySolveJittered(const Matrix& a,
                                                const Matrix& b,
                                                double initial_jitter = 1e-10);

/// Eigendecomposition of a symmetric matrix, read from its lower
/// triangle: Householder reduction to tridiagonal form, then implicit-shift
/// QL with the eigenvectors accumulated (EISPACK tred2/tql2, the method of
/// LAPACK's dsteqr). On success `eigenvalues` is ascending and column j of
/// `eigenvectors` is the unit eigenvector of eigenvalues[j], i.e.
/// A = V diag(w) V^T. The operations run in one fixed serial order, so the
/// bits are the same on both kernel backends and at any thread count.
/// A non-finite entry, or an eigenvalue still unconverged after 30 QL
/// iterations, returns kDiverged and leaves both outputs empty.
[[nodiscard]] core::Status SymmetricEigen(const Matrix& a,
                                          std::vector<double>* eigenvalues,
                                          Matrix* eigenvectors);

/// Sample covariance of the rows of `x` (denominator n, matching Eq. (4)).
Matrix SampleCovariance(const Matrix& x);

/// Shrinkage covariance estimator in the Ledoit-Wolf family:
/// Sigma = (1 - gamma) S + gamma * mu * I, with mu = trace(S)/d and the
/// shrinkage intensity gamma estimated by the Oracle Approximating
/// Shrinkage (OAS) formula. Well-conditioned even when samples << dims,
/// which is exactly the regime of OHIT's per-cluster covariances.
Matrix ShrinkageCovariance(const Matrix& x, double* shrinkage = nullptr);

}  // namespace tsaug::linalg

#endif  // TSAUG_LINALG_DECOMPOSITION_H_
