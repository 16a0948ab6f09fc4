// Differential tests for the GP engine's flat representations: the tape
// lowered from a genome must reproduce the recursive tree walker bit for
// bit (the fleet's report_signature determinism gates depend on it), the
// genome breeding operators must match the tree operators they replaced
// (tests/gp_tree_oracle.hpp) draw for draw, the structural fitness cache
// must never change a result, and deep programs must never touch the C
// stack limits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "gp/batch.hpp"
#include "gp/engine.hpp"
#include "gp/expr.hpp"
#include "gp/genome.hpp"
#include "gp/kernels.hpp"
#include "gp/program.hpp"
#include "gp_tree_oracle.hpp"
#include "util/thread_pool.hpp"

namespace dpr::gp {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Forces a kernel table for one scope and restores the old setting.
class SimdGuard {
 public:
  explicit SimdGuard(bool enable) : previous_(simd_enabled()) {
    set_simd_enabled(enable);
  }
  ~SimdGuard() { set_simd_enabled(previous_); }

 private:
  bool previous_;
};

/// The genes of `expr` (variables valid below `n_vars`).
Genes genes_of(const Expr& expr, std::size_t n_vars) {
  Genes genes;
  flatten(expr, n_vars, genes);
  return genes;
}

/// `expr` flattened and lowered, as the engine lowers a genome.
Program compile(const Expr& expr, std::size_t n_vars) {
  Program program;
  program.lower(genes_of(expr, n_vars));
  return program;
}

TEST(SampleMatrix, ColumnMajorLayout) {
  const std::vector<std::vector<double>> rows{{1.0, 10.0},
                                             {2.0, 20.0},
                                             {3.0, 30.0}};
  const auto matrix = SampleMatrix::from_rows(rows, 2);
  EXPECT_EQ(matrix.n_samples(), 3u);
  EXPECT_EQ(matrix.n_vars(), 2u);
  const auto x0 = matrix.column(0);
  const auto x1 = matrix.column(1);
  ASSERT_EQ(x0.size(), 3u);
  EXPECT_DOUBLE_EQ(x0[0], 1.0);
  EXPECT_DOUBLE_EQ(x0[2], 3.0);
  EXPECT_DOUBLE_EQ(x1[1], 20.0);
  // Columns really are contiguous.
  EXPECT_EQ(x0.data() + 3, x1.data());
}

TEST(SampleMatrix, RowWidthMismatchRejected) {
  const std::vector<std::vector<double>> rows{{1.0, 2.0}, {3.0}};
  EXPECT_THROW(SampleMatrix::from_rows(rows, 2), std::invalid_argument);
}

TEST(Program, CompilesToPostfixTape) {
  // (X0 * X1) / 5 — five nodes, five instructions, one pool constant.
  const auto expr = Expr::binary(
      Op::kDiv, Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(1)),
      Expr::constant(5.0));
  const auto program = compile(expr, 2);
  EXPECT_EQ(program.size(), 5u);
  EXPECT_EQ(program.n_constants(), 1u);
  EXPECT_DOUBLE_EQ(program.constant(0), 5.0);
  // Fused operands: mul reads both variable columns directly, div reads
  // the constant immediate — only the running result needs a column.
  EXPECT_EQ(program.stack_need(), 1u);

  EvalScratch scratch;
  const std::vector<double> vars{241.0, 16.0};
  EXPECT_EQ(bits(program.eval_scalar(vars, scratch)),
            bits(expr.eval(vars)));
}

TEST(Program, BareLeafProgramsEvaluate) {
  // A single-node tree compiles to zero instructions; the result operand
  // points straight at the variable column / constant pool.
  EvalScratch scratch;
  const auto constant = compile(Expr::constant(2.5), 1);
  EXPECT_EQ(bits(constant.eval_scalar({}, scratch)), bits(2.5));

  const auto var = compile(Expr::variable(0), 1);
  const std::vector<std::vector<double>> rows{{7.0}, {-0.0}};
  const auto matrix = SampleMatrix::from_rows(rows, 1);
  var.eval_batch(matrix, scratch);
  EXPECT_EQ(bits(scratch.predictions[0]), bits(7.0));
  EXPECT_EQ(bits(scratch.predictions[1]), bits(-0.0));
  constant.eval_batch(matrix, scratch);
  EXPECT_EQ(bits(scratch.predictions[0]), bits(2.5));
  EXPECT_EQ(bits(scratch.predictions[1]), bits(2.5));
}

TEST(Program, RejectsOutOfRangeVariable) {
  const auto expr = Expr::binary(Op::kAdd, Expr::variable(0),
                                 Expr::variable(5));
  EXPECT_THROW(compile(expr, 2), std::invalid_argument);
  EXPECT_NO_THROW(compile(expr, 6));
}

TEST(Expr, EvalThrowsOnOutOfRangeVariable) {
  const auto expr = Expr::variable(3);
  const std::vector<double> vars{1.0, 2.0};
  EXPECT_THROW(expr.eval(vars), std::out_of_range);
}

TEST(Genome, KeyDistinguishesShapesAndConstants) {
  const auto a = Expr::binary(Op::kAdd, Expr::variable(0),
                              Expr::constant(1.0));
  const auto b = Expr::binary(Op::kAdd, Expr::variable(0),
                              Expr::constant(2.0));
  const auto c = Expr::binary(Op::kSub, Expr::variable(0),
                              Expr::constant(1.0));
  const auto ka = genes_of(a, 1);
  EXPECT_EQ(ka, genes_of(a, 1));
  EXPECT_NE(ka, genes_of(b, 1));  // same shape, different constant bits
  EXPECT_NE(ka, genes_of(c, 1));  // same operands, different op
  // Packed: an op byte per node, a byte per variable, 8 per constant.
  EXPECT_EQ(ka.size(), 1u + 2u + 9u);
}

TEST(Genome, FlattenAndRebuildRoundTrip) {
  util::Rng rng(0x6E0);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n_vars = 1 + rng.uniform_int(0, 1);
    Genes genes;
    const std::size_t nodes = random_genome(
        rng, n_vars, static_cast<int>(rng.uniform_int(0, 6)),
        rng.chance(0.5), genes);
    const Expr expr = to_expr(genes);
    EXPECT_EQ(expr.size(), nodes);
    EXPECT_EQ(expr.depth(), genome_depth(genes));
    EXPECT_EQ(genes_of(expr, n_vars), genes);
    const auto whole = subtree(genes, 0);
    EXPECT_EQ(whole.end, genes.size());
    EXPECT_EQ(whole.nodes, nodes);
  }
}

TEST(Program, DifferentialFuzzTreeVsTapeBitIdentical) {
  // ≥1000 random expressions × random inputs: scalar-tape, batched
  // scalar-kernel, and batched SIMD-kernel execution must all reproduce
  // the recursive walker's doubles bit for bit — protected-operator
  // thresholds, NaN, and ±inf lanes included.
  util::Rng rng(0xD1FF);
  EvalScratch scratch;
  std::size_t checked = 0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t n_vars = 1 + rng.uniform_int(0, 1);
    const int depth = static_cast<int>(rng.uniform_int(1, 5));
    Genes genes;
    random_genome(rng, n_vars, depth, rng.chance(0.5), genes);
    const auto expr = to_expr(genes);
    Program program;
    program.lower(genes);
    ASSERT_EQ(program.size(), expr.size());

    // A batch per expression, spanning sign changes, the protected-op
    // thresholds, and non-finite lanes (every SIMD lane of a 12-sample
    // batch sees a mix of edge and ordinary values).
    std::vector<std::vector<double>> rows;
    for (int s = 0; s < 12; ++s) {
      std::vector<double> row(n_vars);
      for (auto& v : row) {
        const double roll = rng.uniform();
        v = roll < 0.08   ? 0.0
            : roll < 0.16 ? rng.uniform(-1e-9, 1e-9)
            : roll < 0.20 ? nan
            : roll < 0.24 ? (rng.chance(0.5) ? inf : -inf)
                          : rng.uniform(-300.0, 300.0);
      }
      rows.push_back(std::move(row));
    }
    const auto matrix = SampleMatrix::from_rows(rows, n_vars);
    // Equality is bitwise except when both sides are NaN: which of two
    // NaN operands an x86 arithmetic instruction propagates depends on
    // the operand order the compiler happened to emit, and GCC can even
    // commute the auto-vectorized main lanes and the remainder lanes of
    // the *same* scalar-kernel loop differently — so walker, scalar
    // tape, and SIMD tape can legitimately return NaNs of different
    // sign/payload. Every NaN scores the same fitness penalty, so
    // signatures are unaffected; non-NaN values stay strictly bitwise
    // everywhere (the per-op kernel test below keeps strict equality on
    // its single-NaN operand mixes).
    const auto tree_matches = [](double want, double got) {
      return bits(want) == bits(got) ||
             (std::isnan(want) && std::isnan(got));
    };
    std::vector<double> reference(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      reference[i] = expr.eval(rows[i]);
      EXPECT_TRUE(
          tree_matches(reference[i], program.eval_scalar(rows[i], scratch)))
          << "trial " << trial << " sample " << i;
    }
    std::vector<double> scalar_tape(rows.size());
    for (const bool simd : {false, true}) {
      if (simd && !simd_supported()) continue;
      SimdGuard guard(simd);
      program.eval_batch(matrix, scratch);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(tree_matches(reference[i], scratch.predictions[i]))
            << "trial " << trial << " sample " << i
            << (simd ? " (simd)" : " (scalar)");
        if (!simd) {
          scalar_tape[i] = scratch.predictions[i];
        } else {
          EXPECT_TRUE(tree_matches(scalar_tape[i], scratch.predictions[i]))
              << "scalar vs simd tape, trial " << trial << " sample " << i;
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 1000u * 12u);
}

TEST(Kernels, SimdMatchesScalarPerOpIncludingEdgeLanes) {
  // Direct per-op kernel equality across every loop shape and awkward
  // length (SIMD main blocks, 4-lane remainder, scalar tail), on operand
  // mixes saturated with non-finite and threshold values.
  if (!simd_supported()) {
    GTEST_SKIP() << "no AVX2 kernel table compiled/supported here";
  }
  const KernelTable& scalar = scalar_kernels();
  const KernelTable& simd = *avx2_kernels();
  const double edges[] = {0.0,
                          -0.0,
                          1e-10,
                          -1e-10,
                          9.9e-10,
                          -9.9e-10,
                          1e-9,
                          -1e-9,
                          1.0,
                          -1.0,
                          300.0,
                          -300.0,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  constexpr std::size_t kNEdges = std::size(edges);
  const Op all_ops[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                        Op::kMin, Op::kMax, Op::kSqrt, Op::kLog,
                        Op::kAbs, Op::kNeg, Op::kSin, Op::kCos,
                        Op::kTan, Op::kInv};
  util::Rng rng(0x51D);
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 9u, 16u, 33u, 100u}) {
    std::vector<double> a(n), b(n), got(n), want(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.chance(0.5) ? edges[rng.uniform_int(0, kNEdges - 1)]
                             : rng.uniform(-500.0, 500.0);
      b[i] = rng.chance(0.5) ? edges[rng.uniform_int(0, kNEdges - 1)]
                             : rng.uniform(-500.0, 500.0);
    }
    const double k = edges[rng.uniform_int(0, kNEdges - 1)];
    for (const Op op : all_ops) {
      if (arity(op) == 1) {
        scalar.unary(op, want.data(), a.data(), n);
        simd.unary(op, got.data(), a.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(want[i]), bits(got[i]))
              << "unary op " << static_cast<int>(op) << " n=" << n
              << " lane " << i << " x=" << a[i];
        }
        continue;
      }
      scalar.binary(op, want.data(), a.data(), b.data(), n);
      simd.binary(op, got.data(), a.data(), b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(want[i]), bits(got[i]))
            << "binary op " << static_cast<int>(op) << " n=" << n
            << " lane " << i << " a=" << a[i] << " b=" << b[i];
      }
      scalar.binary_ak(op, want.data(), a.data(), k, n);
      simd.binary_ak(op, got.data(), a.data(), k, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(want[i]), bits(got[i]))
            << "binary_ak op " << static_cast<int>(op) << " n=" << n
            << " lane " << i << " a=" << a[i] << " k=" << k;
      }
      scalar.binary_kb(op, want.data(), k, b.data(), n);
      simd.binary_kb(op, got.data(), k, b.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(want[i]), bits(got[i]))
            << "binary_kb op " << static_cast<int>(op) << " n=" << n
            << " lane " << i << " k=" << k << " b=" << b[i];
      }
    }
  }
}

TEST(Kernels, InPlaceColumnUpdateIsSafe) {
  // The tape reuses stack slots: dst may be exactly the operand column.
  // Both tables must handle the exact-aliasing case.
  for (const bool simd : {false, true}) {
    if (simd && !simd_supported()) continue;
    const KernelTable& table = simd ? *avx2_kernels() : scalar_kernels();
    std::vector<double> col(37);
    for (std::size_t i = 0; i < col.size(); ++i) {
      col[i] = static_cast<double>(i) - 18.0;
    }
    std::vector<double> expected(col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      expected[i] = apply_binary(Op::kMul, col[i], col[i]);
    }
    table.binary(Op::kMul, col.data(), col.data(), col.data(), col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(bits(expected[i]), bits(col[i])) << "lane " << i;
    }
  }
}

TEST(Program, DeepChainNeverTouchesTheCStack) {
  // 200k unary nodes: recursive clone/size/teardown would overflow the
  // stack; every structural operation, tree or genome, must be iterative.
  constexpr int kDepth = 200000;
  Expr expr = Expr::constant(1.5);
  for (int i = 0; i < kDepth; ++i) {
    expr = Expr::unary(Op::kNeg, std::move(expr));
  }
  EXPECT_EQ(expr.size(), static_cast<std::size_t>(kDepth) + 1);

  Expr copy = expr;  // iterative clone
  EXPECT_EQ(copy.size(), expr.size());

  const auto program = compile(expr, 1);  // iterative lowering
  EXPECT_EQ(program.size(), static_cast<std::size_t>(kDepth) + 1);
  EXPECT_EQ(program.stack_need(), 1u);
  EvalScratch scratch;
  EXPECT_DOUBLE_EQ(program.eval_scalar({}, scratch), 1.5);

  const Genes genes = genes_of(expr, 1);  // iterative flatten
  EXPECT_EQ(genome_depth(genes), kDepth + 1);
  EXPECT_EQ(subtree(genes, 0).nodes, static_cast<std::size_t>(kDepth) + 1);
  EXPECT_EQ(to_expr(genes).size(), expr.size());  // iterative rebuild
  // Iterative ~Node runs when the trees leave scope.
}

TEST(Genome, RandomGenomeDepthRequestIsCapped) {
  util::Rng rng(7);
  Genes grown;
  random_genome(rng, 2, 1 << 30, false, grown);
  EXPECT_LE(genome_depth(grown), kMaxGrowDepth + 1);
  Genes full;
  random_genome(rng, 2, 4096, true, full);
  EXPECT_LE(genome_depth(full), kMaxFullDepth + 1);
}

// --- Genome operators vs the tree oracle -------------------------------------

bool same_state(const util::Rng& a, const util::Rng& b) {
  const auto x = a.state();
  const auto y = b.state();
  return std::equal(std::begin(x.s), std::end(x.s), std::begin(y.s)) &&
         x.has_cached_normal == y.has_cached_normal &&
         bits(x.cached_normal) == bits(y.cached_normal);
}

/// A least-squares-style seed: c0 + c1*b1 + ... + ck*bk as a left-nested
/// chain, with products of both variables among the terms, so it is
/// deeper than the usual max_depth, as the degree-2 seeds are.
Expr chain_seed(util::Rng& rng, std::size_t n_vars, int terms) {
  Expr sum = Expr::constant(rng.uniform(-5.0, 5.0));
  for (int t = 0; t < terms; ++t) {
    const int i = static_cast<int>(rng.uniform_int(0, n_vars - 1));
    const int j = static_cast<int>(rng.uniform_int(0, n_vars - 1));
    Expr basis = rng.chance(0.5) ? Expr::variable(i)
                                 : Expr::binary(Op::kMul, Expr::variable(i),
                                                Expr::variable(j));
    sum = Expr::binary(Op::kAdd, std::move(sum),
                       Expr::binary(Op::kMul,
                                    Expr::constant(rng.uniform(-5.0, 5.0)),
                                    std::move(basis)));
  }
  return sum;
}

TEST(Genome, OperatorsMatchTreeOracleDrawForDraw) {
  // From the same parents and Rng state, each genome operator must build
  // the tree the tree operator builds (or keep the parent exactly when
  // the tree operator rejects or mutates nothing) and leave the Rng in
  // the same state. Random parents come from both generators, which must
  // agree too.
  util::Rng picker(0xD1FF0);
  std::size_t fresh = 0, rejected = 0, unmutated = 0, deep_parents = 0;
  constexpr int kCases = 12000;
  for (int trial = 0; trial < kCases; ++trial) {
    const std::size_t n_vars = 1 + picker.uniform_int(0, 1);
    const int max_depth = static_cast<int>(picker.uniform_int(2, 8));
    const auto parent = [&](Genes& genes) {
      if (picker.chance(0.2)) {
        const Expr seed = chain_seed(
            picker, n_vars, static_cast<int>(picker.uniform_int(3, 6)));
        flatten(seed, n_vars, genes);
        deep_parents += seed.depth() > max_depth;
        return seed;
      }
      const int depth = static_cast<int>(picker.uniform_int(0, 5));
      const bool full = picker.chance(0.3);
      util::Rng tree_rng(picker());
      util::Rng genome_rng = tree_rng;
      Expr tree = oracle::random_expr(tree_rng, n_vars, depth, full);
      const std::size_t nodes =
          random_genome(genome_rng, n_vars, depth, full, genes);
      EXPECT_EQ(nodes, tree.size());
      EXPECT_EQ(genes_of(tree, n_vars), genes) << "trial " << trial;
      EXPECT_TRUE(same_state(tree_rng, genome_rng)) << "trial " << trial;
      return tree;
    };
    Genes genes_a, genes_b;
    const Expr a = parent(genes_a);
    const Expr b = parent(genes_b);
    const GenomeView va{genes_a, a.size()};
    const GenomeView vb{genes_b, b.size()};

    util::Rng tree_rng(picker());
    util::Rng genome_rng = tree_rng;
    Genes out{0xEE};  // operators append after whatever `out` holds
    std::optional<Expr> want;
    Bred got;
    switch (trial % 3) {
      case 0:
        want = oracle::crossover(a, b, tree_rng, max_depth);
        got = crossover(va, vb, genome_rng, max_depth, out);
        break;
      case 1:
        want = oracle::subtree_mutation(a, tree_rng, n_vars, max_depth);
        got = subtree_mutation(va, genome_rng, n_vars, max_depth, out);
        break;
      default:
        want = oracle::point_mutation(a, tree_rng, n_vars);
        got = point_mutation(va, genome_rng, n_vars, out);
    }
    ASSERT_TRUE(same_state(tree_rng, genome_rng)) << "trial " << trial;
    ASSERT_EQ(got.fresh, want.has_value()) << "trial " << trial;
    const Expr& child = want ? *want : a;
    ASSERT_EQ(out[0], 0xEE);
    ASSERT_EQ(Genes(out.begin() + 1, out.end()), genes_of(child, n_vars))
        << "trial " << trial;
    ASSERT_EQ(got.nodes, child.size()) << "trial " << trial;
    if (got.fresh) {
      ++fresh;
    } else if (trial % 3 == 2) {
      ++unmutated;
    } else {
      ++rejected;
    }
  }
  // Every outcome is exercised, oversize rejection and seeds deeper than
  // max_depth included.
  EXPECT_GT(fresh, kCases / 2u);
  EXPECT_GT(rejected, 500u);
  EXPECT_GT(unmutated, 200u);
  EXPECT_GT(deep_parents, 500u);
}

TEST(FitnessCache, HitReturnsInsertedValueAndCounts) {
  FitnessCache cache(64);
  EXPECT_FALSE(cache.lookup("alpha").has_value());
  cache.insert("alpha", 0.25);
  const auto hit = cache.lookup("alpha");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.25);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

/// `count` distinct genome keys of random programs: what a run actually
/// inserts, so probing is tested on real key bytes.
std::vector<std::string> distinct_shape_keys(std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  Genes genes;
  std::unordered_set<std::string> seen;
  std::vector<std::string> keys;
  while (keys.size() < count) {
    const int depth = static_cast<int>(rng.uniform_int(2, 4));
    genes.clear();
    random_genome(rng, 2, depth, rng.chance(0.5), genes);
    std::string key(genes.begin(), genes.end());
    if (seen.insert(key).second) keys.push_back(std::move(key));
  }
  return keys;
}

TEST(FitnessCache, BoundedByEpochEviction) {
  FitnessCache cache;
  cache.reset(16);  // sized for a 16-shape run; 1000 shapes overflow it
  for (int i = 0; i < 1000; ++i) {
    cache.insert("key" + std::to_string(i), static_cast<double>(i));
  }
  EXPECT_GT(cache.evictions(), 0u);
  // An eviction empties the full table, so it stays bounded; the key
  // inserted last is always still there.
  EXPECT_TRUE(cache.lookup("key999").has_value());
  std::size_t live = 0;
  for (int i = 0; i < 1000; ++i) {
    if (cache.lookup("key" + std::to_string(i))) ++live;
  }
  EXPECT_LT(live, 1000u);
}

TEST(FitnessCache, ResetForgetsEveryKeyAndCounter) {
  // Short keys live inline in the slot, long ones in the overflow pool;
  // a small bound forces evictions first, so reset() must also cope
  // with a table that was already emptied once.
  std::vector<std::string> keys;
  for (int i = 0; i < 600; ++i) {
    keys.push_back((i % 2 == 0 ? "k" : std::string(60, 'x')) +
                   std::to_string(i));
  }
  FitnessCache cache(64);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cache.insert(keys[i], static_cast<double>(i));
    cache.lookup(keys[i]);
    cache.lookup("absent" + keys[i]);
  }
  ASSERT_GT(cache.evictions(), 0u);
  ASSERT_GT(cache.hits(), 0u);

  cache.reset(64);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  for (const auto& key : keys) EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), keys.size());

  // A reset to a larger run keeps working on the grown table.
  cache.reset(4096);
  cache.insert(keys[1], 2.5);
  ASSERT_TRUE(cache.lookup(keys[1]).has_value());
  EXPECT_EQ(*cache.lookup(keys[1]), 2.5);
  EXPECT_FALSE(cache.lookup(keys[0]).has_value());
}

TEST(FitnessCache, RunBoundNeverEvicts) {
  // A run scores at most population + (population - 1) x generations
  // distinct shapes; a cache reset to that bound must hold them all.
  // Table 6 runs pop 1000 x 30 generations, the fleet benchmark pop 64.
  for (const std::size_t population : {std::size_t{1000}, std::size_t{64}}) {
    const std::size_t bound = population + (population - 1) * 30;
    const auto keys = distinct_shape_keys(bound, population);
    FitnessCache cache(8);  // start small: reset() must grow it
    cache.reset(bound);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache.insert(keys[i], static_cast<double>(i));
    }
    EXPECT_EQ(cache.evictions(), 0u) << "population " << population;
    std::size_t found = 0;
    for (const auto& key : keys) found += cache.lookup(key).has_value();
    EXPECT_EQ(found, keys.size()) << "population " << population;
  }
}

// --- The full engine ---------------------------------------------------------

correlate::Dataset synthetic_dataset(std::uint64_t seed, std::size_t n_vars) {
  correlate::Dataset dataset;
  dataset.n_vars = n_vars;
  util::Rng rng(seed);
  for (int i = 0; i < 48; ++i) {
    correlate::DataPoint p;
    p.xs.resize(n_vars);
    for (auto& x : p.xs) x = rng.uniform(0.0, 255.0);
    p.y = n_vars == 1 ? 0.75 * p.xs[0] - 40.0
                      : p.xs[0] * p.xs[1] / 5.0;
    dataset.points.push_back(std::move(p));
  }
  return dataset;
}

TEST(TapeEngine, SimdAndScalarTapeInferBitIdentical) {
  // The other half of the acceptance gate: with the AVX2 kernel table
  // forced off and on, tape inference must produce the same
  // report-signature inputs bit for bit.
  if (!simd_supported()) {
    GTEST_SKIP() << "no AVX2 kernel table compiled/supported here";
  }
  for (const std::size_t n_vars : {1u, 2u}) {
    const auto dataset = synthetic_dataset(44, n_vars);
    GpConfig config;
    config.population = 96;
    config.max_generations = 12;

    std::optional<GpResult> reference;
    {
      SimdGuard guard(false);
      reference = infer_formula(dataset, config);
    }
    ASSERT_TRUE(reference.has_value());

    SimdGuard guard(true);
    const auto result = infer_formula(dataset, config);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->formula, reference->formula) << n_vars << " vars";
    EXPECT_EQ(bits(result->fitness), bits(reference->fitness));
    EXPECT_EQ(result->generations_run, reference->generations_run);
    EXPECT_EQ(result->converged, reference->converged);
  }
}

TEST(TapeEngine, CacheOnAndOffAgreeBitwise) {
  const auto dataset = synthetic_dataset(21, 2);
  GpConfig with_cache;
  with_cache.population = 96;
  with_cache.max_generations = 12;
  with_cache.fitness_cache = true;
  GpConfig without_cache = with_cache;
  without_cache.fitness_cache = false;

  const auto a = infer_formula(dataset, with_cache);
  const auto b = infer_formula(dataset, without_cache);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->formula, b->formula);
  EXPECT_EQ(bits(a->fitness), bits(b->fitness));
  EXPECT_EQ(a->generations_run, b->generations_run);

  // The cache actually worked: offspring reproduce known shapes, and
  // every avoided rescore is one fewer evaluation. (evaluations also
  // counts constant-tuning line searches, which bypass the cache, so
  // misses are a lower bound, not an exact match.)
  EXPECT_GT(a->timings.cache_hits, 0u);
  EXPECT_LE(a->timings.cache_misses, a->timings.evaluations);
  EXPECT_LT(a->timings.evaluations, b->timings.evaluations);
  EXPECT_EQ(b->timings.cache_hits, 0u);
}

// --- Per-thread workspace reuse across calls ---------------------------------

std::optional<GpResult> infer_on_fresh_thread(const correlate::Dataset& data,
                                              const GpConfig& config) {
  std::optional<GpResult> result;
  std::thread([&] { result = infer_formula(data, config); }).join();
  return result;
}

/// A result must not depend on what its thread ran before: every field
/// is deterministic, cache traffic included.
void expect_same_run(const GpResult& got, const GpResult& want,
                     const std::string& where) {
  EXPECT_EQ(got.formula, want.formula) << where;
  EXPECT_EQ(bits(got.fitness), bits(want.fitness)) << where;
  EXPECT_EQ(got.generations_run, want.generations_run) << where;
  EXPECT_EQ(got.converged, want.converged) << where;
  EXPECT_EQ(got.timings.evaluations, want.timings.evaluations) << where;
  EXPECT_EQ(got.timings.cache_hits, want.timings.cache_hits) << where;
  EXPECT_EQ(got.timings.cache_misses, want.timings.cache_misses) << where;
}

TEST(Workspace, SecondCallOnAThreadMatchesAFreshThread) {
  // A and B share n_vars and seed, so their initial random populations
  // have identical shapes: a cache that kept A's entries would hand B
  // fitness values from the wrong dataset. A is also the larger run, so
  // B reuses a table grown past its own size.
  const auto a = synthetic_dataset(61, 2);
  const auto b = synthetic_dataset(62, 2);
  GpConfig config_b;
  config_b.population = 96;
  config_b.max_generations = 12;
  GpConfig config_a = config_b;
  config_a.population = 160;

  const auto fresh = infer_on_fresh_thread(b, config_b);
  std::optional<GpResult> reused;
  std::thread([&] {
    ASSERT_TRUE(infer_formula(a, config_a).has_value());
    reused = infer_formula(b, config_b);
  }).join();
  ASSERT_TRUE(fresh && reused);
  EXPECT_GT(fresh->timings.cache_hits, 0u);
  expect_same_run(*reused, *fresh, "second call");
}

TEST(Workspace, BatchOnSharedPoolMatchesFreshThreads) {
  // Pool workers run job after job, each on a workspace the previous
  // job left behind; every job must still match its own fresh run.
  std::vector<correlate::Dataset> datasets;
  for (std::uint64_t seed = 70; seed < 78; ++seed) {
    datasets.push_back(synthetic_dataset(seed, 1 + seed % 2));
  }
  std::vector<BatchJob> jobs;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    BatchJob job;
    job.dataset = &datasets[i];
    job.config.population = i % 2 == 0 ? 64 : 128;
    job.config.max_generations = 10;
    jobs.push_back(job);
  }
  util::ThreadPool pool(2);
  const auto results = BatchRunner(pool).run(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto fresh = infer_on_fresh_thread(*jobs[i].dataset, jobs[i].config);
    ASSERT_TRUE(fresh && results[i]);
    expect_same_run(*results[i], *fresh, "job " + std::to_string(i));
  }
}

}  // namespace
}  // namespace dpr::gp
