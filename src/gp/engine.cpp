#include "gp/engine.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <memory>

#include "gp/program.hpp"
#include "regress/regress.hpp"
#include "util/thread_pool.hpp"

namespace dpr::gp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Offspring per breeding chunk. Fixed (never derived from the worker
/// count) so that the chunk -> RNG-stream mapping, and therefore the
/// evolved population, is identical for every n_threads.
constexpr std::size_t kBreedChunk = 32;

/// Runs chunked loops either inline or on a work-stealing pool. The
/// chunk decomposition is shared between both paths, so results do not
/// depend on which one executes.
class Runner {
 public:
  explicit Runner(std::size_t n_threads) {
    if (util::ThreadPool::resolve(n_threads) > 1) {
      pool_ = std::make_unique<util::ThreadPool>(n_threads);
    }
  }

  void chunks(std::size_t n, std::size_t n_chunks,
              const std::function<void(std::size_t, std::size_t,
                                       std::size_t)>& body) {
    if (n == 0 || n_chunks == 0) return;
    n_chunks = std::min(n_chunks, n);
    if (pool_) {
      pool_->parallel_chunks(n, n_chunks, body);
      return;
    }
    for (std::size_t c = 0; c < n_chunks; ++c) {
      body(c, c * n / n_chunks, (c + 1) * n / n_chunks);
    }
  }

  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& body) {
    chunks(n, n, [&body](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

 private:
  std::unique_ptr<util::ThreadPool> pool_;
};

struct Individual {
  Expr expr;
  double fitness = 1e300;    // raw MAE
  double penalized = 1e300;  // MAE + parsimony
};

/// Everything fitness evaluation reads, fixed for one infer_formula run.
/// `rows` is the row-major dataset (legacy walker + OLS seeds); `matrix`
/// mirrors it column-major for the tape interpreter's streaming loops.
struct FitnessData {
  const std::vector<std::vector<double>>* rows = nullptr;
  const std::vector<double>* ys = nullptr;
  SampleMatrix matrix;
  std::size_t n_vars = 1;
  double trim_fraction = 0.9;
  double parsimony = 0.0;
  bool use_tape = true;
  FitnessCache* cache = nullptr;  // tape mode only; null = disabled
};

/// Per-worker evaluation state: a reusable tape plus the batch buffers.
/// Every use overwrites what it reads (analyze() before emit(), a fresh
/// tape pass before its predictions), so it carries nothing between uses.
struct WorkerScratch {
  Program program;
  EvalScratch eval;
};

/// One thread's GP working memory, kept for the thread's lifetime so that
/// neither a generation nor an infer_formula call rebuilds it: the
/// fitness cache of the run this thread drives (reset per run) and the
/// scratch its chunk bodies score with. Once both have grown to the
/// workload, a call allocates and page-faults nothing here.
struct Workspace {
  FitnessCache cache;
  WorkerScratch scratch;
  bool cache_held = false;
  bool scratch_held = false;
};

Workspace& this_thread_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

/// Borrows one member of this thread's Workspace for a scope. When a
/// frame further up the same thread already holds it (a nested
/// infer_formula), the borrower gets a private instance instead, so no
/// two users ever share one.
template <typename T>
class Borrowed {
 public:
  Borrowed(T& shared, bool& held) {
    if (held) {
      item_ = &local_.emplace();
    } else {
      held = true;
      held_ = &held;
      item_ = &shared;
    }
  }
  ~Borrowed() {
    if (held_ != nullptr) *held_ = false;
  }
  Borrowed(const Borrowed&) = delete;
  Borrowed& operator=(const Borrowed&) = delete;

  T& operator*() const { return *item_; }
  T* operator->() const { return item_; }

 private:
  std::optional<T> local_;
  bool* held_ = nullptr;
  T* item_ = nullptr;
};

Borrowed<FitnessCache> borrow_cache() {
  Workspace& workspace = this_thread_workspace();
  return {workspace.cache, workspace.cache_held};
}

Borrowed<WorkerScratch> borrow_scratch() {
  Workspace& workspace = this_thread_workspace();
  return {workspace.scratch, workspace.scratch_held};
}

/// Trimmed mean over `residuals` (partitioned in place): ignore the
/// worst (1 - trim) fraction so surviving OCR outliers cannot steer the
/// search.
double trimmed_mean(std::vector<double>& residuals, double trim_fraction) {
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(trim_fraction *
                                  static_cast<double>(residuals.size())));
  std::nth_element(residuals.begin(),
                   residuals.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   residuals.end());
  double total = 0.0;
  for (std::size_t i = 0; i < keep; ++i) total += residuals[i];
  return total / static_cast<double>(keep);
}

/// Reference path: recursive tree walk, one sample at a time.
double tree_mae(const Expr& expr, const FitnessData& data,
                EvalScratch& scratch) {
  const auto& xs = *data.rows;
  const auto& ys = *data.ys;
  auto& residuals = scratch.residuals;
  residuals.clear();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double predicted = expr.eval(xs[i]);
    if (!std::isfinite(predicted)) return 1e300;
    residuals.push_back(std::abs(predicted - ys[i]));
  }
  return trimmed_mean(residuals, data.trim_fraction);
}

/// Fast path: one batched tape pass over the column-major samples. The
/// per-sample arithmetic order matches tree_mae exactly, so the two
/// paths return bit-identical doubles.
double tape_mae(const Program& program, const FitnessData& data,
                EvalScratch& scratch) {
  program.eval_batch(data.matrix, scratch);
  const auto& ys = *data.ys;
  auto& residuals = scratch.residuals;
  residuals.clear();
  for (std::size_t i = 0; i < scratch.predictions.size(); ++i) {
    const double predicted = scratch.predictions[i];
    if (!std::isfinite(predicted)) return 1e300;
    residuals.push_back(std::abs(predicted - ys[i]));
  }
  return trimmed_mean(residuals, data.trim_fraction);
}

/// Score an individual. Returns true when a fresh evaluation ran, false
/// when the structural cache already knew this shape's fitness (the
/// cached value is what the evaluation would have produced, so hit/miss
/// patterns can never change the evolution).
bool score(Individual& ind, const FitnessData& data, WorkerScratch& scratch) {
  if (!data.use_tape) {
    ind.fitness = tree_mae(ind.expr, data, scratch.eval);
    ind.penalized =
        ind.fitness + data.parsimony * static_cast<double>(ind.expr.size());
    return true;
  }
  // Two-stage lowering keeps the cache hit path minimal: analyze() walks
  // the tree once and serializes the probe key; the tape itself is
  // emitted only when the fitness actually has to be computed.
  bool evaluated = true;
  if (data.cache != nullptr) {
    scratch.program.analyze(ind.expr, data.n_vars, &scratch.eval.key);
    if (const auto cached = data.cache->lookup(scratch.eval.key)) {
      ind.fitness = *cached;
      evaluated = false;
    } else {
      scratch.program.emit();
      ind.fitness = tape_mae(scratch.program, data, scratch.eval);
      data.cache->insert(scratch.eval.key, ind.fitness);
    }
  } else {
    scratch.program.recompile(ind.expr, data.n_vars);
    ind.fitness = tape_mae(scratch.program, data, scratch.eval);
  }
  // Program::size() is the node count, so the parsimony term needs no
  // extra tree walk.
  ind.penalized = ind.fitness + data.parsimony *
                                    static_cast<double>(scratch.program.size());
  return evaluated;
}

const Individual& tournament(const std::vector<Individual>& pop,
                             util::Rng& rng, std::size_t k) {
  const Individual* best = nullptr;
  for (std::size_t i = 0; i < k; ++i) {
    const auto& candidate = pop[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
    if (best == nullptr || candidate.penalized < best->penalized) {
      best = &candidate;
    }
  }
  return *best;
}

/// Swap a random subtree of `a` with a random subtree of `b`. Returns
/// nullopt when the offspring exceeds the depth bound — the caller keeps
/// the parent *and its already-known fitness* instead of rescoring.
std::optional<Expr> crossover(const Expr& a, const Expr& b, util::Rng& rng,
                              int max_depth) {
  Expr child = a;
  auto child_nodes = child.nodes();
  Expr donor = b;
  auto donor_nodes = donor.nodes();
  Node* target = child_nodes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(child_nodes.size()) - 1))];
  const Node* source = donor_nodes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(donor_nodes.size()) - 1))];
  auto cloned = source->clone();
  *target = std::move(*cloned);
  if (child.depth() > max_depth) return std::nullopt;  // oversized
  return child;
}

std::optional<Expr> subtree_mutation(const Expr& a, util::Rng& rng,
                                     std::size_t n_vars, int max_depth) {
  Expr child = a;
  auto nodes = child.nodes();
  Node* target = nodes[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(nodes.size()) - 1))];
  Expr replacement = random_expr(rng, n_vars, 2, false);
  auto cloned = replacement.root()->clone();
  *target = std::move(*cloned);
  if (child.depth() > max_depth) return std::nullopt;
  return child;
}

/// Returns nullopt when no node was mutated (the parent's fitness still
/// holds).
std::optional<Expr> point_mutation(const Expr& a, util::Rng& rng,
                                   std::size_t n_vars) {
  Expr child = a;
  bool mutated = false;
  for (Node* node : child.nodes()) {
    if (!rng.chance(0.15)) continue;
    mutated = true;
    switch (arity(node->op)) {
      case 0:
        if (node->op == Op::kConst) {
          // Gaussian constant perturbation.
          node->value += rng.normal(0.0, 0.3 + 0.1 * std::abs(node->value));
        } else if (n_vars > 1) {
          node->var = static_cast<int>(
              rng.uniform_int(0, static_cast<std::int64_t>(n_vars) - 1));
        }
        break;
      case 1: {
        static const Op unary[] = {Op::kSqrt, Op::kLog, Op::kAbs, Op::kNeg,
                                   Op::kSin, Op::kCos, Op::kTan, Op::kInv};
        node->op = unary[rng.uniform_int(0, std::size(unary) - 1)];
        break;
      }
      case 2: {
        static const Op binary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                                    Op::kMin, Op::kMax};
        node->op = binary[rng.uniform_int(0, std::size(binary) - 1)];
        break;
      }
    }
  }
  if (!mutated) return std::nullopt;
  return child;
}

/// Coordinate-descent refinement of an individual's constants — part of
/// the "improved" GP: evolution finds the shape, refinement nails the
/// coefficients. Returns the number of MAE evaluations performed. The
/// tape path compiles once and patches the constant pool in lockstep
/// with the tree nodes, so the line search never recompiles; the visit
/// order (pre-order constants, identical step schedule) matches the
/// legacy walker step for step.
std::size_t tune_constants(Individual& ind, const FitnessData& data,
                           WorkerScratch& scratch) {
  auto constants = ind.expr.constant_nodes();
  if (constants.empty()) return 0;
  std::vector<std::size_t> pool_index;
  if (data.use_tape) {
    scratch.program.recompile(ind.expr, data.n_vars);
    // Map each pre-order tree constant to its pool slot (the pool is in
    // postfix order); constant counts are tiny, linear scan is fine.
    pool_index.assign(constants.size(), 0);
    for (std::size_t k = 0; k < constants.size(); ++k) {
      for (std::size_t j = 0; j < scratch.program.n_constants(); ++j) {
        if (scratch.program.const_node(j) == constants[k]) {
          pool_index[k] = j;
          break;
        }
      }
    }
  }
  const auto current_mae = [&data, &ind, &scratch]() {
    return data.use_tape ? tape_mae(scratch.program, data, scratch.eval)
                         : tree_mae(ind.expr, data, scratch.eval);
  };
  const auto nudge = [&](std::size_t k, double delta) {
    constants[k]->value += delta;
    if (data.use_tape) {
      scratch.program.set_constant(pool_index[k], constants[k]->value);
    }
  };
  std::size_t evaluations = 0;
  bool improved_any = true;
  for (int pass = 0; improved_any && pass < 6; ++pass) {
    improved_any = false;
    for (std::size_t k = 0; k < constants.size(); ++k) {
      const double magnitude =
          std::max(0.001, std::abs(constants[k]->value));
      for (double step : {magnitude, magnitude * 0.1, magnitude * 0.01,
                          magnitude * 0.001}) {
        for (double direction : {+1.0, -1.0}) {
          // Line search: keep stepping while the fit keeps improving.
          for (int walk = 0; walk < 64; ++walk) {
            nudge(k, direction * step);
            const double mae = current_mae();
            ++evaluations;
            if (mae + 1e-15 < ind.fitness) {
              ind.fitness = mae;
              improved_any = true;
            } else {
              nudge(k, -direction * step);
              break;
            }
          }
        }
      }
    }
  }
  ind.penalized =
      ind.fitness + data.parsimony * static_cast<double>(ind.expr.size());
  return evaluations;
}

/// Affine / product seed templates (improved-GP ingredient): cheap
/// skeletons matching the shapes manufacturer formulas overwhelmingly
/// take. Evolution is free to discard them.
std::vector<Expr> seed_templates(util::Rng& rng, std::size_t n_vars) {
  std::vector<Expr> seeds;
  auto c = [&rng] { return Expr::constant(rng.uniform(-5.0, 5.0)); };
  for (std::size_t v = 0; v < n_vars; ++v) {
    seeds.push_back(Expr::variable(static_cast<int>(v)));
    seeds.push_back(Expr::binary(Op::kMul, c(),
                                 Expr::variable(static_cast<int>(v))));
    seeds.push_back(Expr::binary(
        Op::kAdd,
        Expr::binary(Op::kMul, c(), Expr::variable(static_cast<int>(v))),
        c()));
  }
  if (n_vars >= 2) {
    seeds.push_back(Expr::binary(Op::kMul, Expr::variable(0),
                                 Expr::variable(1)));
    seeds.push_back(Expr::binary(
        Op::kMul, c(),
        Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(1))));
    seeds.push_back(Expr::binary(
        Op::kAdd, Expr::binary(Op::kMul, c(), Expr::variable(0)),
        Expr::binary(Op::kMul, c(), Expr::variable(1))));
    seeds.push_back(Expr::binary(
        Op::kAdd,
        Expr::binary(Op::kAdd, Expr::binary(Op::kMul, c(),
                                            Expr::variable(0)),
                     Expr::binary(Op::kMul, c(), Expr::variable(1))),
        c()));
  }
  // Quadratic skeleton.
  seeds.push_back(Expr::binary(
      Op::kMul, c(), Expr::binary(Op::kMul, Expr::variable(0),
                                  Expr::variable(0))));
  return seeds;
}

/// Ordinary-least-squares seeds (improved-GP ingredient): solve the
/// affine and degree-2 bases directly on the (scaled) data and inject the
/// solutions into the initial population. Evolution keeps them only if
/// they actually fit — nonlinear targets still require search.
std::vector<Expr> least_squares_seeds(
    const std::vector<std::vector<double>>& xs,
    const std::vector<double>& ys, std::size_t n_vars) {
  std::vector<Expr> seeds;
  auto emit = [&seeds](const std::vector<double>& coeffs,
                       const std::vector<Expr>& basis) {
    Expr sum = Expr::constant(coeffs[0]);
    for (std::size_t i = 1; i < coeffs.size() && i - 1 < basis.size();
         ++i) {
      if (std::abs(coeffs[i]) < 1e-12) continue;
      sum = Expr::binary(Op::kAdd, std::move(sum),
                         Expr::binary(Op::kMul, Expr::constant(coeffs[i]),
                                      basis[i - 1]));
    }
    seeds.push_back(std::move(sum));
  };

  // Solve, then re-solve once excluding gross-residual rows (OCR
  // outliers): a one-step robust refit.
  auto solve_robust = [&ys](const std::vector<std::vector<double>>& rows)
      -> std::vector<std::vector<double>> {
    std::vector<std::vector<double>> solutions;
    const auto first = regress::solve_least_squares(rows, ys);
    if (!first) return solutions;
    solutions.push_back(*first);

    std::vector<double> residuals(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      double predicted = 0.0;
      for (std::size_t c = 0; c < rows[r].size(); ++c) {
        predicted += (*first)[c] * rows[r][c];
      }
      residuals[r] = std::abs(predicted - ys[r]);
    }
    std::vector<double> sorted = residuals;
    std::nth_element(sorted.begin(), sorted.begin() +
                         static_cast<std::ptrdiff_t>(sorted.size() / 2),
                     sorted.end());
    const double cut = std::max(1e-9, 3.0 * sorted[sorted.size() / 2]);
    std::vector<std::vector<double>> kept_rows;
    std::vector<double> kept_ys;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (residuals[r] <= cut) {
        kept_rows.push_back(rows[r]);
        kept_ys.push_back(ys[r]);
      }
    }
    if (kept_rows.size() >= rows.size() * 2 / 3 &&
        kept_rows.size() < rows.size()) {
      if (const auto second =
              regress::solve_least_squares(kept_rows, kept_ys)) {
        solutions.push_back(*second);
      }
    }
    return solutions;
  };

  // Affine basis: X0 (, X1).
  {
    std::vector<std::vector<double>> rows;
    rows.reserve(xs.size());
    for (const auto& x : xs) {
      std::vector<double> row{1.0};
      row.insert(row.end(), x.begin(), x.end());
      rows.push_back(std::move(row));
    }
    std::vector<Expr> basis;
    for (std::size_t v = 0; v < n_vars; ++v) {
      basis.push_back(Expr::variable(static_cast<int>(v)));
    }
    for (const auto& sol : solve_robust(rows)) emit(sol, basis);
  }
  // Degree-2 basis: X0 (, X1), X0^2, X0*X1, X1^2.
  {
    std::vector<std::vector<double>> rows;
    std::vector<Expr> basis;
    for (std::size_t v = 0; v < n_vars; ++v) {
      basis.push_back(Expr::variable(static_cast<int>(v)));
    }
    for (std::size_t i = 0; i < n_vars; ++i) {
      for (std::size_t j = i; j < n_vars; ++j) {
        basis.push_back(Expr::binary(Op::kMul,
                                     Expr::variable(static_cast<int>(i)),
                                     Expr::variable(static_cast<int>(j))));
      }
    }
    rows.reserve(xs.size());
    for (const auto& x : xs) {
      std::vector<double> row{1.0};
      row.insert(row.end(), x.begin(), x.end());
      for (std::size_t i = 0; i < n_vars; ++i) {
        for (std::size_t j = i; j < n_vars; ++j) {
          row.push_back(x[i] * x[j]);
        }
      }
      rows.push_back(std::move(row));
    }
    for (const auto& sol : solve_robust(rows)) emit(sol, basis);
  }
  return seeds;
}

}  // namespace

double GpResult::predict(std::span<const double> raw_xs) const {
  std::vector<double> scaled(raw_xs.size());
  for (std::size_t i = 0; i < raw_xs.size(); ++i) {
    const double factor =
        i < x_scales.size() ? x_scales[i].factor : 1.0;
    scaled[i] = raw_xs[i] / factor;
  }
  return best.eval(scaled) * y_scale.factor;
}

std::optional<GpResult> infer_formula(const correlate::Dataset& dataset,
                                      const GpConfig& config) {
  if (dataset.points.size() < 6) return std::nullopt;
  const std::size_t n_vars = dataset.n_vars;
  const auto wall_start = Clock::now();
  Runner runner(config.n_threads);

  // --- Table 2 pre-processing ---------------------------------------------
  GpResult result;
  result.n_vars = n_vars;
  result.x_scales.assign(n_vars, SeriesScale{});
  if (config.use_scaling) {
    for (std::size_t v = 0; v < n_vars; ++v) {
      std::vector<double> column;
      column.reserve(dataset.points.size());
      for (const auto& p : dataset.points) column.push_back(p.xs[v]);
      result.x_scales[v] = choose_scale(column, /*allow_enlarge=*/false);
    }
    std::vector<double> targets;
    targets.reserve(dataset.points.size());
    for (const auto& p : dataset.points) targets.push_back(p.y);
    result.y_scale = choose_scale(targets, /*allow_enlarge=*/true);
  }

  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  xs.reserve(dataset.points.size());
  ys.reserve(dataset.points.size());
  for (const auto& p : dataset.points) {
    std::vector<double> row(n_vars);
    for (std::size_t v = 0; v < n_vars; ++v) {
      row[v] = p.xs[v] / result.x_scales[v].factor;
    }
    xs.push_back(std::move(row));
    ys.push_back(p.y / result.y_scale.factor);
  }

  // --- Fitness machinery ---------------------------------------------------
  // Tape mode mirrors the samples into a column-major matrix once and
  // shares this thread's structural fitness cache across every worker of
  // this run (reset below, once the initial population is known).
  FitnessData data;
  data.rows = &xs;
  data.ys = &ys;
  data.n_vars = n_vars;
  data.trim_fraction = config.trim_fraction;
  data.parsimony = config.parsimony;
  data.use_tape = config.use_tape;
  if (config.use_tape) data.matrix = SampleMatrix::from_rows(xs, n_vars);
  const auto cache = borrow_cache();
  if (config.use_tape && config.fitness_cache) data.cache = &*cache;

  // --- Initial population ----------------------------------------------------
  util::Rng rng(config.seed);
  std::vector<Individual> population;
  population.reserve(config.population);
  if (config.seed_templates) {
    for (auto& seed : seed_templates(rng, n_vars)) {
      Individual ind;
      ind.expr = std::move(seed);
      population.push_back(std::move(ind));
    }
  }
  if (config.seed_least_squares) {
    for (auto& seed : least_squares_seeds(xs, ys, n_vars)) {
      Individual ind;
      ind.expr = std::move(seed);
      population.push_back(std::move(ind));
    }
  }
  const std::size_t seed_count = population.size();
  while (population.size() < config.population) {
    // Ramped half-and-half.
    const int depth = static_cast<int>(rng.uniform_int(
        config.init_depth_min, config.init_depth_max));
    Individual ind;
    ind.expr = random_expr(rng, n_vars, depth, rng.chance(0.5));
    population.push_back(std::move(ind));
  }
  // The run scores at most the initial population plus (population - 1)
  // offspring per generation, so that many distinct shapes can reach the
  // cache.
  const std::size_t offspring =
      config.population > 0 ? config.population - 1 : 0;
  if (data.cache != nullptr) {
    data.cache->reset(population.size() + offspring * config.max_generations);
  }
  GpStageTimings timings;
  {
    // Initial scoring, fanned over the pool in fixed-size chunks; each
    // chunk scores with its thread's scratch (tape + buffers). Per-chunk
    // slots keep the accounting race-free.
    const std::size_t n = population.size();
    const std::size_t n_chunks = (n + kBreedChunk - 1) / kBreedChunk;
    std::vector<double> slot_s(n_chunks, 0.0);
    std::vector<std::size_t> slot_evals(n_chunks, 0);
    runner.chunks(n, n_chunks, [&](std::size_t c, std::size_t begin,
                                   std::size_t end) {
      const auto scratch = borrow_scratch();
      const auto t0 = Clock::now();
      for (std::size_t i = begin; i < end; ++i) {
        if (score(population[i], data, *scratch)) ++slot_evals[c];
      }
      slot_s[c] = seconds_since(t0);
    });
    for (double s : slot_s) timings.scoring_s += s;
    for (std::size_t e : slot_evals) timings.evaluations += e;
  }
  if (config.constant_tuning && seed_count > 0) {
    // Refine the seed skeletons once up front: the template *shapes* are
    // right, their random constants are not.
    std::vector<double> slot_s(seed_count, 0.0);
    std::vector<std::size_t> slot_evals(seed_count, 0);
    runner.chunks(seed_count, seed_count, [&](std::size_t, std::size_t begin,
                                              std::size_t end) {
      const auto scratch = borrow_scratch();
      for (std::size_t i = begin; i < end; ++i) {
        const auto t0 = Clock::now();
        slot_evals[i] = tune_constants(population[i], data, *scratch);
        slot_s[i] = seconds_since(t0);
      }
    });
    for (double s : slot_s) timings.tuning_s += s;
    for (std::size_t e : slot_evals) timings.evaluations += e;
  }

  auto best_it = std::min_element(
      population.begin(), population.end(),
      [](const Individual& a, const Individual& b) {
        return a.penalized < b.penalized;
      });
  Individual best = *best_it;

  // --- Evolution ---------------------------------------------------------------
  // Absolute form of stopping criterion (ii), anchored to the scaled
  // target's magnitude.
  double mean_abs_y = 0.0;
  for (double y : ys) mean_abs_y += std::abs(y);
  mean_abs_y /= static_cast<double>(ys.size());
  const double stop_below =
      config.fitness_threshold * std::max(1e-6, mean_abs_y);

  std::size_t generation = 0;
  for (; generation < config.max_generations; ++generation) {
    if (best.fitness <= stop_below) break;  // criterion (ii)
    // Cooperative cancellation (phase watchdog): stop evolving and return
    // the best-so-far instead of wedging a worker past its deadline.
    if (config.cancel != nullptr && config.cancel->expired()) break;

    const std::size_t n_chunks =
        std::max<std::size_t>(1, (offspring + kBreedChunk - 1) / kBreedChunk);

    // Fork one RNG stream per breeding chunk *serially* from the master:
    // the stream a chunk sees is a function of (seed, generation, chunk)
    // only, so any worker may run any chunk and the evolved population is
    // still bit-identical for every n_threads.
    std::vector<util::Rng> chunk_rngs;
    chunk_rngs.reserve(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) chunk_rngs.push_back(rng.fork());

    std::vector<Individual> next(std::max<std::size_t>(1, config.population));
    next[0] = best;  // elitism: cached fitness, never rescored

    std::vector<double> breed_s(n_chunks, 0.0), score_s(n_chunks, 0.0);
    std::vector<std::size_t> chunk_evals(n_chunks, 0);
    runner.chunks(offspring, n_chunks, [&](std::size_t c, std::size_t begin,
                                           std::size_t end) {
      util::Rng& crng = chunk_rngs[c];
      const auto scratch = borrow_scratch();
      for (std::size_t i = begin; i < end; ++i) {
        const auto t0 = Clock::now();
        const double roll = crng.uniform();
        Individual child;
        bool fresh = false;  // does the child need scoring?
        if (roll < config.crossover_rate) {
          const Individual& pa = tournament(population, crng, config.tournament);
          const Individual& pb = tournament(population, crng, config.tournament);
          if (auto expr = crossover(pa.expr, pb.expr, crng, config.max_depth)) {
            child.expr = std::move(*expr);
            fresh = true;
          } else {
            child = pa;  // rejected oversize: parent's fitness carries over
          }
        } else if (roll <
                   config.crossover_rate + config.subtree_mutation_rate) {
          const Individual& pa = tournament(population, crng, config.tournament);
          if (auto expr =
                  subtree_mutation(pa.expr, crng, n_vars, config.max_depth)) {
            child.expr = std::move(*expr);
            fresh = true;
          } else {
            child = pa;
          }
        } else if (roll < config.crossover_rate +
                              config.subtree_mutation_rate +
                              config.point_mutation_rate) {
          const Individual& pa = tournament(population, crng, config.tournament);
          if (auto expr = point_mutation(pa.expr, crng, n_vars)) {
            child.expr = std::move(*expr);
            fresh = true;
          } else {
            child = pa;  // no site mutated: fitness unchanged
          }
        } else {
          child = tournament(population, crng, config.tournament);  // reproduce
        }
        breed_s[c] += seconds_since(t0);
        if (fresh) {
          const auto s0 = Clock::now();
          if (score(child, data, *scratch)) ++chunk_evals[c];
          score_s[c] += seconds_since(s0);
        }
        next[1 + i] = std::move(child);
      }
    });
    for (std::size_t c = 0; c < n_chunks; ++c) {
      timings.breeding_s += breed_s[c];
      timings.scoring_s += score_s[c];
      timings.evaluations += chunk_evals[c];
    }
    population = std::move(next);

    // Refine the constants of the few fittest individuals, then promote
    // the overall champion.
    if (config.constant_tuning) {
      const std::size_t top = std::min<std::size_t>(3, population.size());
      std::partial_sort(population.begin(),
                        population.begin() + static_cast<std::ptrdiff_t>(top),
                        population.end(),
                        [](const Individual& a, const Individual& b) {
                          return a.penalized < b.penalized;
                        });
      std::vector<double> tune_s(top, 0.0);
      std::vector<std::size_t> tune_evals(top, 0);
      runner.chunks(top, top, [&](std::size_t, std::size_t begin,
                                  std::size_t end) {
        const auto scratch = borrow_scratch();
        for (std::size_t k = begin; k < end; ++k) {
          const auto t0 = Clock::now();
          tune_evals[k] = tune_constants(population[k], data, *scratch);
          tune_s[k] = seconds_since(t0);
        }
      });
      for (std::size_t k = 0; k < top; ++k) {
        timings.tuning_s += tune_s[k];
        timings.evaluations += tune_evals[k];
      }
    }
    auto it = std::min_element(population.begin(), population.end(),
                               [](const Individual& a, const Individual& b) {
                                 return a.penalized < b.penalized;
                               });
    if (it->penalized < best.penalized) best = *it;
  }

  best.expr.simplify();
  result.best = best.expr;
  result.fitness = best.fitness;
  result.generations_run = generation;
  result.converged = best.fitness <= stop_below;
  timings.total_s = seconds_since(wall_start);
  if (data.cache != nullptr) {
    timings.cache_hits = static_cast<std::size_t>(data.cache->hits());
    timings.cache_misses = static_cast<std::size_t>(data.cache->misses());
  }
  result.timings = timings;

  // --- Table 2 post-processing: substitute the scale factors back ------------
  std::string body = result.best.to_string(n_vars);
  for (std::size_t v = 0; v < n_vars; ++v) {
    if (result.x_scales[v].identity()) continue;
    const std::string symbol = n_vars <= 1 ? "X" : "X" + std::to_string(v);
    const std::string substituted =
        "(" + scaled_symbol(symbol, result.x_scales[v]) + ")";
    std::size_t pos = 0;
    while ((pos = body.find(symbol, pos)) != std::string::npos) {
      // Avoid replacing "X1" inside "X10"-like tokens (n_vars <= 2 keeps
      // this simple: symbols are "X", "X0", "X1").
      const std::size_t after = pos + symbol.size();
      if (after < body.size() && std::isdigit(static_cast<unsigned char>(
                                     body[after]))) {
        pos = after;
        continue;
      }
      body.replace(pos, symbol.size(), substituted);
      pos += substituted.size();
    }
  }
  result.formula = scaled_symbol("Y", result.y_scale) + " = " + body;
  return result;
}

double mean_relative_error(
    const GpResult& result, const correlate::Dataset& dataset,
    const std::function<double(std::span<const double>)>& truth) {
  if (dataset.points.empty()) return 1e300;
  // Error scale: pointwise magnitude with a floor at 5% of the signal's
  // mean magnitude (so near-zero crossings don't explode the ratio and
  // tiny-valued signals aren't trivially "correct").
  double mean_abs = 0.0;
  for (const auto& p : dataset.points) mean_abs += std::abs(truth(p.xs));
  mean_abs /= static_cast<double>(dataset.points.size());
  const double floor_scale = std::max(1e-9, 0.05 * mean_abs);
  double total = 0.0;
  for (const auto& p : dataset.points) {
    const double predicted = result.predict(p.xs);
    const double expected = truth(p.xs);
    const double scale = std::max(floor_scale, std::abs(expected));
    total += std::abs(predicted - expected) / scale;
  }
  return total / static_cast<double>(dataset.points.size());
}

double max_relative_error(
    const GpResult& result, const correlate::Dataset& dataset,
    const std::function<double(std::span<const double>)>& truth) {
  if (dataset.points.empty()) return 1e300;
  // Error scale: pointwise magnitude with a floor at 5% of the signal's
  // mean magnitude (so near-zero crossings don't explode the ratio and
  // tiny-valued signals aren't trivially "correct").
  double mean_abs = 0.0;
  for (const auto& p : dataset.points) mean_abs += std::abs(truth(p.xs));
  mean_abs /= static_cast<double>(dataset.points.size());
  const double floor_scale = std::max(1e-9, 0.05 * mean_abs);
  double worst = 0.0;
  for (const auto& p : dataset.points) {
    const double predicted = result.predict(p.xs);
    const double expected = truth(p.xs);
    const double scale = std::max(floor_scale, std::abs(expected));
    worst = std::max(worst, std::abs(predicted - expected) / scale);
  }
  return worst;
}

}  // namespace dpr::gp
