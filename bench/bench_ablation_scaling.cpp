// Ablation — Table 2 pre/post scaling. The paper motivates the scaling
// with GP failure modes on extreme target ranges ("if most values of Y
// are extremely small ... GP will directly set a constant"). This bench
// runs the GP engine with and without scaling on targets spanning six
// orders of magnitude and reports the recovery rate per range.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "gp/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace dpr;

correlate::Dataset make_dataset(double scale, util::Rng& rng) {
  // Truth: Y = scale * (3 sqrt(X) + 5) over raw bytes — outside the
  // affine/degree-2 bases, so the evolutionary search itself must find
  // the structure (and feels the operand/target ranges).
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(0.0, 255.0);
    dataset.points.push_back(
        correlate::DataPoint{{x}, scale * (3.0 * std::sqrt(x) + 5.0)});
  }
  return dataset;
}

struct AblationRow {
  double recovered = 0;         // % runs matching the ground truth
  double constant_collapse = 0; // % runs degenerating to a constant
};

bool has_variable(const gp::Node* node) {
  return node->op == gp::Op::kVar ||
         (node->lhs && has_variable(node->lhs.get())) ||
         (node->rhs && has_variable(node->rhs.get()));
}

AblationRow recovery_rate(double scale, bool use_scaling) {
  util::Rng rng(0xAB1A7E);
  int correct = 0;
  int collapsed = 0;
  const int trials = 24;
  for (int trial = 0; trial < trials; ++trial) {
    const auto dataset = make_dataset(scale, rng);
    gp::GpConfig config;
    config.population = 192;
    config.max_generations = 30;
    config.use_scaling = use_scaling;
    config.seed = 0x5CA1E + static_cast<std::uint64_t>(trial);
    const auto result = gp::infer_formula(dataset, config);
    if (!result) continue;
    const auto truth = [scale](std::span<const double> xs) {
      return scale * (3.0 * std::sqrt(xs[0]) + 5.0);
    };
    if (gp::mean_relative_error(*result, dataset, truth) < 0.03) ++correct;
    // "GP will directly set a constant value as the formula" — the
    // failure mode Table 2 exists to prevent.
    if (!has_variable(result->best.root())) ++collapsed;
  }
  return AblationRow{100.0 * correct / trials, 100.0 * collapsed / trials};
}

}  // namespace

int main() {
  std::printf("Ablation: Table 2 pre/post scaling in GP inference\n");
  std::printf("(truth Y = k*(3*sqrt(X) + 5); recovery rate over 24 seeds)\n\n");
  std::printf("%-14s %-24s %-24s\n", "target scale",
              "with scaling (rec%/const%)",
              "without scaling (rec%/const%)");
  dpr::bench::print_rule(64);
  double with_total = 0, without_total = 0;
  const double scales[] = {1e-4, 1e-2, 1.0, 1e2, 1e4};
  for (const double scale : scales) {
    const auto with_scaling = recovery_rate(scale, true);
    const auto without_scaling = recovery_rate(scale, false);
    std::printf("%-14g %6.0f / %-15.0f %6.0f / %-15.0f\n", scale,
                with_scaling.recovered, with_scaling.constant_collapse,
                without_scaling.recovered,
                without_scaling.constant_collapse);
    with_total += with_scaling.recovered;
    without_total += without_scaling.recovered;
  }
  dpr::bench::print_rule(64);
  std::printf("mean recovery %-24.0f %-24.0f\n", with_total / 5,
              without_total / 5);
  std::printf("\nExpected: scaling dominates on extreme ranges (the Table 2 "
              "design rationale).\n");
  return with_total >= without_total ? 0 : 1;
}
