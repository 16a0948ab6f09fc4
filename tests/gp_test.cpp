#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "gp/batch.hpp"
#include "gp/engine.hpp"
#include "gp/expr.hpp"
#include "gp/genome.hpp"
#include "gp/scaling.hpp"
#include "gp_tree_oracle.hpp"

namespace dpr::gp {
namespace {

TEST(Expr, EvalArithmetic) {
  // (X0 * X1) / 5 — the paper's KWP RPM formula shape.
  auto expr = Expr::binary(
      Op::kDiv, Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(1)),
      Expr::constant(5.0));
  const std::vector<double> vars{241.0, 16.0};
  EXPECT_DOUBLE_EQ(expr.eval(vars), 771.2);
  EXPECT_EQ(expr.size(), 5u);
}

TEST(Expr, ProtectedDivision) {
  auto expr = Expr::binary(Op::kDiv, Expr::constant(1.0),
                           Expr::constant(0.0));
  EXPECT_DOUBLE_EQ(expr.eval({}), 1.0);
}

TEST(Expr, ProtectedLogAndSqrt) {
  auto log_expr = Expr::unary(Op::kLog, Expr::constant(-2.0));
  EXPECT_DOUBLE_EQ(log_expr.eval({}), std::log(2.0));
  auto sqrt_expr = Expr::unary(Op::kSqrt, Expr::constant(-4.0));
  EXPECT_DOUBLE_EQ(sqrt_expr.eval({}), 2.0);
}

TEST(Expr, AllFourteenFunctionsEvaluateFinite) {
  const Op ops[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMin,
                    Op::kMax, Op::kSqrt, Op::kLog, Op::kAbs, Op::kNeg,
                    Op::kSin, Op::kCos, Op::kTan, Op::kInv};
  for (Op op : ops) {
    Expr expr = arity(op) == 2
                    ? Expr::binary(op, Expr::variable(0), Expr::constant(2.0))
                    : Expr::unary(op, Expr::variable(0));
    for (double x : {-5.0, 0.0, 0.5, 100.0}) {
      const std::vector<double> vars{x};
      EXPECT_TRUE(std::isfinite(expr.eval(vars)))
          << "op " << static_cast<int>(op) << " at " << x;
    }
  }
}

TEST(Expr, SimplifyFoldsConstants) {
  auto expr = Expr::binary(Op::kAdd, Expr::constant(2.0),
                           Expr::constant(3.0));
  expr.simplify();
  EXPECT_EQ(expr.size(), 1u);
  EXPECT_DOUBLE_EQ(expr.eval({}), 5.0);
}

TEST(Expr, SimplifyRemovesIdentities) {
  auto expr = Expr::binary(
      Op::kMul, Expr::constant(1.0),
      Expr::binary(Op::kAdd, Expr::variable(0), Expr::constant(0.0)));
  expr.simplify();
  EXPECT_EQ(expr.size(), 1u);
  EXPECT_EQ(expr.to_string(1), "X");
}

TEST(Expr, ToStringVariableNaming) {
  auto expr = Expr::binary(Op::kAdd, Expr::variable(0), Expr::variable(1));
  EXPECT_EQ(expr.to_string(2), "(X0 + X1)");
  auto single = Expr::variable(0);
  EXPECT_EQ(single.to_string(1), "X");
}

TEST(Expr, CopyIsDeep) {
  auto a = Expr::binary(Op::kAdd, Expr::variable(0), Expr::constant(1.0));
  Expr b = a;
  b.root()->rhs->value = 99.0;
  const std::vector<double> vars{0.0};
  EXPECT_DOUBLE_EQ(a.eval(vars), 1.0);
  EXPECT_DOUBLE_EQ(b.eval(vars), 99.0);
}

TEST(Genome, RandomGenomeRespectsDepthBound) {
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Genes genes;
    const std::size_t nodes = random_genome(rng, 2, 3, true, genes);
    EXPECT_LE(genome_depth(genes), 4);
    EXPECT_EQ(subtree(genes, 0).nodes, nodes);
    EXPECT_EQ(subtree(genes, 0).end, genes.size());
  }
}

TEST(Scaling, Table2ReduceLargeValues) {
  // Most values in 10^3..10^4 -> divide by 10^3 (Table 2 row 2).
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) values.push_back(2000.0 + i * 100);
  const auto scale = choose_scale(values, true);
  EXPECT_DOUBLE_EQ(scale.factor, 1000.0);
}

TEST(Scaling, Table2EnlargeSmallValues) {
  std::vector<double> values;
  for (int i = 1; i <= 20; ++i) values.push_back(0.02 + i * 0.001);
  const auto scale = choose_scale(values, true);
  EXPECT_DOUBLE_EQ(scale.factor, 0.01);  // multiply by 100
}

TEST(Scaling, IdentityInsideTargetBand) {
  std::vector<double> values{1.5, 2.0, 5.0, 9.9};
  EXPECT_TRUE(choose_scale(values, true).identity());
}

TEST(Scaling, XSeriesNeverEnlarged) {
  std::vector<double> values{0.01, 0.02, 0.03, 0.05};
  EXPECT_TRUE(choose_scale(values, false).identity());
}

TEST(Scaling, SymbolSubstitution) {
  SeriesScale reduce{1000.0};
  EXPECT_EQ(scaled_symbol("Y", reduce), "Y/1000");
  SeriesScale enlarge{0.01};
  EXPECT_EQ(scaled_symbol("Y", enlarge), "Y*100");
  EXPECT_EQ(scaled_symbol("X", SeriesScale{}), "X");
}

// --- End-to-end inference on synthetic datasets ------------------------------

correlate::Dataset make_dataset(
    std::size_t n_vars, const std::function<double(double, double)>& truth,
    double x0_lo, double x0_hi, std::size_t n = 40) {
  correlate::Dataset dataset;
  dataset.n_vars = n_vars;
  util::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(x0_lo, x0_hi);
    const double x1 = rng.uniform(0.0, 255.0);
    correlate::DataPoint p;
    p.xs = n_vars == 1 ? std::vector<double>{x0}
                       : std::vector<double>{x0, x1};
    p.y = truth(x0, x1);
    dataset.points.push_back(std::move(p));
  }
  return dataset;
}

GpConfig fast_config() {
  GpConfig config;
  config.population = 128;
  config.max_generations = 20;
  return config;
}

TEST(Infer, RecoversIdentity) {
  const auto dataset =
      make_dataset(1, [](double x, double) { return x; }, 0, 255);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) { return xs[0]; };
  EXPECT_LT(mean_relative_error(*result, dataset, truth), 0.02);
}

TEST(Infer, RecoversAffineWithOffset) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.75 * x - 48.0; }, 0, 255);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return 0.75 * xs[0] - 48.0;
  };
  EXPECT_LT(mean_relative_error(*result, dataset, truth), 0.02);
}

TEST(Infer, RecoversProductFormula) {
  // The paper's KWP RPM formula: Y = X0*X1/5.
  const auto dataset = make_dataset(
      2, [](double x0, double x1) { return x0 * x1 / 5.0; }, 30, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return xs[0] * xs[1] / 5.0;
  };
  EXPECT_LT(mean_relative_error(*result, dataset, truth), 0.02);
}

TEST(Infer, RecoversQuadratic) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.004 * x * x; }, 10, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return 0.004 * xs[0] * xs[0];
  };
  EXPECT_LT(mean_relative_error(*result, dataset, truth), 0.02);
}

TEST(Infer, RobustToOutliers) {
  auto dataset =
      make_dataset(1, [](double x, double) { return 2.0 * x; }, 0, 255);
  // Corrupt ~7% of targets with decimal-drop style outliers.
  dataset.points[3].y *= 10.0;
  dataset.points[17].y *= 100.0;
  dataset.points[29].y /= 10.0;
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) { return 2.0 * xs[0]; };
  EXPECT_LT(mean_relative_error(*result, dataset, truth), 0.02);
}

TEST(Infer, ScalingSubstitutedIntoFormula) {
  // Targets in the thousands: Table 2 post-processing must appear.
  const auto dataset = make_dataset(
      1, [](double x, double) { return 64.0 * x + 32.0; }, 20, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->formula.find("Y/"), std::string::npos);
}

TEST(Infer, TooFewPointsRejected) {
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  for (int i = 0; i < 3; ++i) {
    dataset.points.push_back(correlate::DataPoint{{double(i)}, double(i)});
  }
  EXPECT_EQ(infer_formula(dataset, fast_config()), std::nullopt);
}

TEST(Infer, EmptyInitialPopulationRejected) {
  // Population 0 with both seed sets off leaves nothing to evolve.
  const auto dataset =
      make_dataset(1, [](double x, double) { return x; }, 0, 255);
  GpConfig config = fast_config();
  config.population = 0;
  config.seed_templates = false;
  config.seed_least_squares = false;
  EXPECT_EQ(infer_formula(dataset, config), std::nullopt);
  // With seeds, population 0 still searches over the seeds alone.
  config.seed_templates = true;
  const auto seeded = infer_formula(dataset, config);
  ASSERT_TRUE(seeded.has_value());
  EXPECT_TRUE(seeded->converged);
}

TEST(Infer, OperandCountOutsideGenomeRangeRejected) {
  // A variable gene names its operand in one byte, and a formula needs
  // at least one operand.
  for (const std::size_t n_vars : {std::size_t{0}, kMaxVars + 1}) {
    correlate::Dataset dataset;
    dataset.n_vars = n_vars;
    for (int i = 0; i < 8; ++i) {
      dataset.points.push_back(
          correlate::DataPoint{std::vector<double>(n_vars, i), double(i)});
    }
    EXPECT_THROW(infer_formula(dataset, fast_config()), std::invalid_argument)
        << n_vars << " operands";
  }
}

TEST(Infer, DeterministicForFixedSeed) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.5 * x + 3.0; }, 0, 255);
  const auto a = infer_formula(dataset, fast_config());
  const auto b = infer_formula(dataset, fast_config());
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->formula, b->formula);
}

TEST(Infer, TimingsAccountForTheRun) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 3.0 * x + 11.0; }, 0, 255);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->timings.total_s, 0.0);
  EXPECT_GT(result->timings.evaluations, 0u);
  // Initial scoring alone touches the whole population once; with the
  // structural cache on, duplicate shapes resolve as hits instead of
  // fresh evaluations, so count both.
  EXPECT_GE(result->timings.evaluations + result->timings.cache_hits,
            fast_config().population);
  EXPECT_GE(result->timings.scoring_s, 0.0);
}

TEST(Batch, RunnerMatchesSerialInference) {
  const auto d0 = make_dataset(
      1, [](double x, double) { return 1.5 * x; }, 0, 255);
  const auto d1 = make_dataset(
      1, [](double x, double) { return 0.25 * x + 9.0; }, 0, 255);
  const auto d2 = make_dataset(
      2, [](double x0, double x1) { return x0 * x1 / 5.0; }, 30, 250);

  std::vector<BatchJob> jobs;
  for (const auto* d : {&d0, &d1, &d2}) {
    BatchJob job;
    job.dataset = d;
    job.config = fast_config();
    job.config.seed ^= jobs.size() * 0x1234567ULL;
    jobs.push_back(job);
  }
  const auto serial = BatchRunner(1).run(jobs);
  const auto parallel = BatchRunner(4).run(jobs);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(serial[i].has_value());
    ASSERT_TRUE(parallel[i].has_value());
    EXPECT_EQ(serial[i]->formula, parallel[i]->formula) << "job " << i;
    EXPECT_EQ(serial[i]->fitness, parallel[i]->fitness) << "job " << i;
  }
}

TEST(Infer, StopsEarlyWhenConverged) {
  const auto dataset =
      make_dataset(1, [](double x, double) { return x; }, 0, 255);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(result->generations_run, 20u);
}

TEST(Infer, PredictAppliesScalesEndToEnd) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 100.0 * x; }, 10, 250);
  const auto result = infer_formula(dataset, fast_config());
  ASSERT_TRUE(result.has_value());
  const std::vector<double> x{100.0};
  EXPECT_NEAR(result->predict(x), 10000.0, 200.0);
}

class AblationScaling : public ::testing::TestWithParam<bool> {};

TEST_P(AblationScaling, ExtremeTargetsNeedTable2) {
  // Y in the 10^4 range; without scaling GP tends to flatline (§3.5
  // step 3's motivating failure).
  const auto dataset = make_dataset(
      1, [](double x, double) { return 400.0 * x + 1000.0; }, 20, 250);
  GpConfig config = fast_config();
  config.use_scaling = GetParam();
  config.seed_least_squares = false;  // isolate the scaling effect
  const auto result = infer_formula(dataset, config);
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    return 400.0 * xs[0] + 1000.0;
  };
  const double err = mean_relative_error(*result, dataset, truth);
  if (GetParam()) {
    EXPECT_LT(err, 0.05);
  }
  // (The unscaled variant is exercised for crash-freedom; its accuracy
  // is measured by bench_ablation_scaling.)
}

INSTANTIATE_TEST_SUITE_P(OnOff, AblationScaling, ::testing::Bool());

}  // namespace
}  // namespace dpr::gp

namespace dpr::gp {
namespace {

TEST(Limitations, SeedKeyStyleTransformNotRecovered) {
  // §6 limitation (2): DP-Reverser's GP covers arithmetic/transcendental
  // formulas, not bitwise seed-key transforms. Document the boundary.
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  util::Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
    const std::uint32_t y = ((x ^ 0xA5u) << 3 | (x ^ 0xA5u) >> 5) & 0xFF;
    dataset.points.push_back(
        correlate::DataPoint{{static_cast<double>(x)},
                             static_cast<double>(y)});
  }
  GpConfig config;
  config.population = 128;
  config.max_generations = 20;
  const auto result = infer_formula(dataset, config);
  ASSERT_TRUE(result.has_value());
  const auto truth = [](std::span<const double> xs) {
    const auto x = static_cast<std::uint32_t>(xs[0]);
    return static_cast<double>(((x ^ 0xA5u) << 3 | (x ^ 0xA5u) >> 5) & 0xFF);
  };
  EXPECT_GT(max_relative_error(*result, dataset, truth), 0.08);
}

TEST(Property, RandomExpressionsNeverProduceNonFiniteFitness) {
  // Protected operators guarantee finite evaluation everywhere.
  util::Rng rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    auto expr = oracle::random_expr(rng, 2, 4, rng.chance(0.5));
    const std::vector<double> vars{rng.uniform(-1e4, 1e4),
                                   rng.uniform(-1e4, 1e4)};
    const double value = expr.eval(vars);
    // Division/log/inv are protected; only tan can reach huge-but-finite.
    EXPECT_FALSE(std::isnan(value));
  }
}

TEST(Property, SimplifyPreservesSemantics) {
  util::Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    auto expr = oracle::random_expr(rng, 2, 4, false);
    Expr simplified = expr;
    simplified.simplify();
    for (int probe = 0; probe < 5; ++probe) {
      const std::vector<double> vars{rng.uniform(0.0, 255.0),
                                     rng.uniform(0.0, 255.0)};
      const double a = expr.eval(vars);
      const double b = simplified.eval(vars);
      if (std::isfinite(a) && std::isfinite(b)) {
        EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(a)));
      }
    }
  }
}

}  // namespace
}  // namespace dpr::gp
