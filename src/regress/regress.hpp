#pragma once
// The alternative formula-inference algorithms of §4.4: multivariate
// linear regression (as used by LibreCAN) and degree-2 polynomial curve
// fitting with cross terms. Both solve ordinary least squares via the
// normal equations; both fail on the non-polynomial / outlier-laden cases
// GP handles, which is precisely Table 10's point.

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "correlate/correlate.hpp"

namespace dpr::regress {

struct FitResult {
  /// Basis functions over the X operands and their fitted coefficients.
  std::vector<double> coefficients;
  std::size_t n_vars = 1;
  bool polynomial = false;   // false: affine; true: degree-2 with crosses
  double mae = 1e300;        // on the training data
  std::string formula;

  double predict(std::span<const double> xs) const;
};

/// Y = b0 + b1*X0 (+ b2*X1). Returns nullopt for degenerate systems.
std::optional<FitResult> fit_linear(const correlate::Dataset& dataset);

/// Y = b0 + sum bi*Xi + sum bij*Xi*Xj + sum bii*Xi^2.
std::optional<FitResult> fit_polynomial(const correlate::Dataset& dataset);

/// Same acceptance criteria as the gp module's, for Table 10.
double mean_relative_error(
    const FitResult& result, const correlate::Dataset& dataset,
    const std::function<double(std::span<const double>)>& truth);

double max_relative_error(
    const FitResult& result, const correlate::Dataset& dataset,
    const std::function<double(std::span<const double>)>& truth);

/// Least-squares solve of (A^T A) b = A^T y with partial pivoting.
/// `rows` is the design matrix A, row-major: one row of `n_cols` values
/// per entry of `ys`. Returns nullopt for no rows, a size that is not
/// ys.size() rows of `n_cols`, or a singular system.
std::optional<std::vector<double>> solve_least_squares(
    std::span<const double> rows, std::size_t n_cols,
    std::span<const double> ys);

}  // namespace dpr::regress
