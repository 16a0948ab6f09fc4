#include "gp/engine.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "gp/genome.hpp"
#include "gp/program.hpp"
#include "regress/regress.hpp"

namespace dpr::gp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Offspring per breeding chunk. Each chunk breeds from its own RNG
/// stream, forked from the master in chunk order, so this constant fixes
/// which draws every child sees: changing it would move every search.
constexpr std::size_t kBreedChunk = 32;

/// One program of a generation. Its genes are bytes [offset, offset +
/// bytes) of the generation's genes buffer; `genes` points at them once
/// that buffer is complete.
struct Individual {
  std::uint8_t* genes = nullptr;
  std::uint32_t offset = 0;
  std::uint32_t bytes = 0;
  std::uint32_t nodes = 0;
  double fitness = 1e300;    // raw MAE
  double penalized = 1e300;  // MAE + parsimony
  bool fresh = true;         // not yet scored

  GenomeView view() const { return {{genes, bytes}, nodes}; }
  /// The fitness-cache key: the packed genes themselves.
  std::string_view key() const {
    return {reinterpret_cast<const char*>(genes), bytes};
  }
  void place(std::size_t start, std::size_t end, std::size_t node_count) {
    offset = static_cast<std::uint32_t>(start);
    bytes = static_cast<std::uint32_t>(end - start);
    nodes = static_cast<std::uint32_t>(node_count);
  }
};

bool fitter(const Individual& a, const Individual& b) {
  return a.penalized < b.penalized;
}

/// Everything fitness evaluation reads, fixed for one infer_formula run:
/// the scaled samples column-major, their targets, and the cache.
struct FitnessData {
  SampleMatrix matrix;
  std::vector<double> ys;
  double trim_fraction = 0.9;
  double parsimony = 0.0;
  FitnessCache* cache = nullptr;  // null = disabled
};

/// What a run keeps for its whole length: the fitness cache, the genes
/// buffers of the two live generations (the population's and its
/// offspring's), the population vectors, the champion's genes, and the
/// tape and batch buffers every evaluation reuses. None of it carries
/// meaning from one run to the next: each use overwrites what it reads.
struct RunMemory {
  FitnessCache cache;
  Genes generations[2];
  std::vector<Individual> population;
  std::vector<Individual> next;
  Genes best;
  Program program;
  EvalScratch eval;
};

/// One thread's GP working memory, kept for the thread's lifetime so that
/// neither a generation nor an infer_formula call rebuilds it. Once it has
/// grown to the workload, a call allocates and page-faults nothing here.
struct Workspace {
  RunMemory run;
  bool held = false;
};

/// Borrows this thread's RunMemory for a scope. When a frame further up
/// the same thread already holds it (a nested infer_formula), the
/// borrower gets a private instance instead, so no two runs ever share
/// one.
class Borrowed {
 public:
  Borrowed() {
    thread_local Workspace workspace;
    if (workspace.held) {
      run_ = &local_.emplace();
    } else {
      workspace.held = true;
      held_ = &workspace.held;
      run_ = &workspace.run;
    }
  }
  ~Borrowed() {
    if (held_ != nullptr) *held_ = false;
  }
  Borrowed(const Borrowed&) = delete;
  Borrowed& operator=(const Borrowed&) = delete;

  RunMemory& operator*() const { return *run_; }

 private:
  std::optional<RunMemory> local_;
  bool* held_ = nullptr;
  RunMemory* run_ = nullptr;
};

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

/// Trimmed MAE of the lowered program: one batched tape pass over the
/// column-major samples.
double tape_mae(const Program& program, const FitnessData& data,
                EvalScratch& scratch) {
  program.eval_batch(data.matrix, scratch);
  auto& residuals = scratch.residuals;
  residuals.clear();
  for (std::size_t i = 0; i < scratch.predictions.size(); ++i) {
    const double predicted = scratch.predictions[i];
    if (!std::isfinite(predicted)) return 1e300;
    residuals.push_back(std::abs(predicted - data.ys[i]));
  }
  return trimmed_mean(residuals, data.trim_fraction);
}

/// Score an individual. Returns true when a fresh evaluation ran, false
/// when the cache already knew this program's fitness (the cached value
/// is what the evaluation would have produced, so hit/miss patterns can
/// never change the evolution). A hit needs only the genome's bytes; the
/// tape is lowered only when the fitness has to be computed.
bool score(Individual& ind, const FitnessData& data, RunMemory& run) {
  const auto cached =
      data.cache != nullptr ? data.cache->lookup(ind.key()) : std::nullopt;
  if (cached) {
    ind.fitness = *cached;
  } else {
    run.program.lower(ind.view().genes);
    ind.fitness = tape_mae(run.program, data, run.eval);
    if (data.cache != nullptr) data.cache->insert(ind.key(), ind.fitness);
  }
  ind.penalized = ind.fitness + data.parsimony * ind.nodes;
  ind.fresh = false;
  return !cached;
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

/// Coordinate-descent refinement of an individual's constants — part of
/// the "improved" GP: evolution finds the shape, refinement nails the
/// coefficients. Returns the number of MAE evaluations performed. The
/// program is lowered once; the line search patches its constant pool,
/// whose entry k is the genome's k-th constant gene, and the tuned values
/// are written back into the genes at the end.
std::size_t tune_constants(Individual& ind, const FitnessData& data,
                           RunMemory& run) {
  Program& program = run.program;
  program.lower(ind.view().genes);
  const std::size_t n_constants = program.n_constants();
  if (n_constants == 0) return 0;
  const auto nudge = [&program](std::size_t k, double delta) {
    program.set_constant(k, program.constant(k) + delta);
  };
  std::size_t evaluations = 0;
  bool improved_any = true;
  for (int pass = 0; improved_any && pass < 6; ++pass) {
    improved_any = false;
    for (std::size_t k = 0; k < n_constants; ++k) {
      const double magnitude = std::max(0.001, std::abs(program.constant(k)));
      for (double step : {magnitude, magnitude * 0.1, magnitude * 0.01,
                          magnitude * 0.001}) {
        for (double direction : {+1.0, -1.0}) {
          // Line search: keep stepping while the fit keeps improving.
          for (int walk = 0; walk < 64; ++walk) {
            nudge(k, direction * step);
            const double mae = tape_mae(program, data, run.eval);
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
  std::size_t k = 0;
  for (std::size_t at = 0; at < ind.bytes;) {
    std::uint8_t* gene = ind.genes + at;
    at += gene_bytes(gene_op(gene));
    if (gene_op(gene) == Op::kConst) {
      set_gene_value(gene, program.constant(k++));
    }
  }
  ind.penalized = ind.fitness + data.parsimony * ind.nodes;
  return evaluations;
}

/// Appends one seed written in prefix: '+' and '*' are functions, 'c' a
/// constant, 'v' the variable `var` and a digit the variable of that
/// index. Constants are drawn last to first: the order the tree-building
/// code that first defined these seeds drew them in (GCC evaluated its
/// nested call arguments right to left), which keeps every seed, and so
/// every search, unchanged.
void add_seed(std::string_view pattern, int var, util::Rng& rng,
              Genes& out) {
  std::size_t constants[4];
  std::size_t n = 0;
  for (const char symbol : pattern) {
    if (symbol == 'c') {
      constants[n++] = out.size();
      append_const(out, 0.0);
    } else if (symbol == '+' || symbol == '*') {
      append_op(out, symbol == '+' ? Op::kAdd : Op::kMul);
    } else {
      append_var(out, symbol == 'v' ? var : symbol - '0');
    }
  }
  while (n > 0) set_gene_value(&out[constants[--n]], rng.uniform(-5.0, 5.0));
}

/// Affine / product seed templates (improved-GP ingredient): cheap
/// skeletons matching the shapes manufacturer formulas overwhelmingly
/// take. Evolution is free to discard them.
void seed_templates(util::Rng& rng, std::size_t n_vars, Genes& out) {
  for (std::size_t v = 0; v < n_vars; ++v) {
    for (const char* affine : {"v", "*cv", "+*cvc"}) {
      add_seed(affine, static_cast<int>(v), rng, out);
    }
  }
  if (n_vars >= 2) {
    for (const char* product : {"*01", "*c*01", "+*c0*c1", "++*c0*c1c"}) {
      add_seed(product, 0, rng, out);
    }
  }
  add_seed("*c*00", 0, rng, out);  // quadratic skeleton
}

/// Ordinary-least-squares seeds (improved-GP ingredient): solve the
/// affine and degree-2 bases directly on the (scaled) data and inject the
/// solutions into the initial population. Evolution keeps them only if
/// they actually fit — nonlinear targets still require search.
void least_squares_seeds(const FitnessData& data, Genes& out) {
  const SampleMatrix& xs = data.matrix;
  const std::vector<double>& ys = data.ys;
  const std::size_t n_vars = xs.n_vars();
  // A basis term: X_i alone (j < 0) or the product X_i * X_j.
  struct Term {
    int i;
    int j;
  };
  // c0 + c1*b1 + c2*b2 + ... as a left-nested chain of additions; in
  // prefix, one '+' per kept term, then c0, then '* c_i b_i' per term.
  const auto emit = [&out](const std::vector<double>& coeffs,
                           const std::vector<Term>& basis) {
    const std::size_t n_terms = std::min(coeffs.size() - 1, basis.size());
    const auto kept = [&coeffs](std::size_t t) {
      return !(std::abs(coeffs[t + 1]) < 1e-12);
    };
    for (std::size_t t = 0; t < n_terms; ++t) {
      if (kept(t)) append_op(out, Op::kAdd);
    }
    append_const(out, coeffs[0]);
    for (std::size_t t = 0; t < n_terms; ++t) {
      if (!kept(t)) continue;
      append_op(out, Op::kMul);
      append_const(out, coeffs[t + 1]);
      if (basis[t].j >= 0) append_op(out, Op::kMul);
      append_var(out, basis[t].i);
      if (basis[t].j >= 0) append_var(out, basis[t].j);
    }
  };

  // The design matrix, row-major, and the robust refit's kept rows:
  // flat buffers shared by both bases.
  std::vector<double> rows;
  std::vector<double> kept_rows;
  std::vector<double> kept_ys;
  std::vector<double> residuals;
  std::vector<double> sorted;

  // Solve, then re-solve once excluding gross-residual rows (OCR
  // outliers): a one-step robust refit.
  const auto solve_robust = [&](std::size_t n_cols,
                                const std::vector<Term>& basis) {
    const std::size_t n_rows = ys.size();
    const auto first = regress::solve_least_squares(rows, n_cols, ys);
    if (!first) return;
    emit(*first, basis);

    residuals.resize(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const double* row = rows.data() + r * n_cols;
      double predicted = 0.0;
      for (std::size_t c = 0; c < n_cols; ++c) {
        predicted += (*first)[c] * row[c];
      }
      residuals[r] = std::abs(predicted - ys[r]);
    }
    sorted = residuals;
    std::nth_element(sorted.begin(), sorted.begin() +
                         static_cast<std::ptrdiff_t>(sorted.size() / 2),
                     sorted.end());
    const double cut = std::max(1e-9, 3.0 * sorted[sorted.size() / 2]);
    kept_rows.clear();
    kept_rows.reserve(rows.size());
    kept_ys.clear();
    for (std::size_t r = 0; r < n_rows; ++r) {
      if (residuals[r] <= cut) {
        kept_rows.insert(kept_rows.end(), rows.begin() + r * n_cols,
                         rows.begin() + (r + 1) * n_cols);
        kept_ys.push_back(ys[r]);
      }
    }
    if (kept_ys.size() >= n_rows * 2 / 3 && kept_ys.size() < n_rows) {
      if (const auto second =
              regress::solve_least_squares(kept_rows, n_cols, kept_ys)) {
        emit(*second, basis);
      }
    }
  };

  // Affine basis X0 (, X1), then degree 2: X0 (, X1), X0^2, X0*X1, X1^2.
  std::vector<Term> basis;
  for (std::size_t v = 0; v < n_vars; ++v) {
    basis.push_back({static_cast<int>(v), -1});
  }
  for (const bool degree2 : {false, true}) {
    if (degree2) {
      for (std::size_t i = 0; i < n_vars; ++i) {
        for (std::size_t j = i; j < n_vars; ++j) {
          basis.push_back({static_cast<int>(i), static_cast<int>(j)});
        }
      }
    }
    const std::size_t n_cols = basis.size() + 1;
    rows.clear();
    rows.reserve(xs.n_samples() * n_cols);
    for (std::size_t r = 0; r < xs.n_samples(); ++r) {
      rows.push_back(1.0);
      for (const Term& term : basis) {
        rows.push_back(term.j < 0 ? xs.at(r, term.i)
                                  : xs.at(r, term.i) * xs.at(r, term.j));
      }
    }
    solve_robust(n_cols, basis);
  }
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
  if (n_vars == 0 || n_vars > kMaxVars) {
    throw std::invalid_argument("gp: a dataset needs 1 to 256 operands");
  }
  const auto wall_start = Clock::now();

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

  // --- Fitness machinery ---------------------------------------------------
  // The scaled samples, column-major for the tape, and this thread's run
  // memory: the fitness cache (reset below, once the initial population
  // is known), the genes buffers and the evaluation scratch.
  FitnessData data;
  data.matrix = SampleMatrix(dataset.points.size(), n_vars);
  data.ys.reserve(dataset.points.size());
  for (std::size_t i = 0; i < dataset.points.size(); ++i) {
    const auto& p = dataset.points[i];
    for (std::size_t v = 0; v < n_vars; ++v) {
      data.matrix.at(i, v) = p.xs[v] / result.x_scales[v].factor;
    }
    data.ys.push_back(p.y / result.y_scale.factor);
  }
  data.trim_fraction = config.trim_fraction;
  data.parsimony = config.parsimony;
  const Borrowed memory;
  RunMemory& run = *memory;
  if (config.fitness_cache) data.cache = &run.cache;

  // --- Initial population ----------------------------------------------------
  // Seeds, then random programs, written straight into the first buffer.
  util::Rng rng(config.seed);
  std::vector<Individual>& population = run.population;
  std::vector<Individual>& next = run.next;
  population.clear();
  Genes& genes = run.generations[0];
  genes.clear();
  if (config.seed_templates) seed_templates(rng, n_vars, genes);
  if (config.seed_least_squares) least_squares_seeds(data, genes);
  for (std::size_t at = 0; at < genes.size();) {
    const Extent seed = subtree(genes, at);
    population.emplace_back().place(at, seed.end, seed.nodes);
    at = seed.end;
  }
  const std::size_t seed_count = population.size();
  while (population.size() < config.population) {
    // Ramped half-and-half.
    const int depth = static_cast<int>(rng.uniform_int(
        config.init_depth_min, config.init_depth_max));
    const bool full = rng.chance(0.5);
    const std::size_t start = genes.size();
    const std::size_t nodes = random_genome(rng, n_vars, depth, full, genes);
    population.emplace_back().place(start, genes.size(), nodes);
  }
  if (population.empty()) return std::nullopt;
  for (Individual& ind : population) ind.genes = genes.data() + ind.offset;

  // The run scores at most the initial population plus (population - 1)
  // offspring per generation, so that many distinct programs can reach
  // the cache.
  const std::size_t offspring =
      config.population > 0 ? config.population - 1 : 0;
  if (data.cache != nullptr) {
    data.cache->reset(population.size() + offspring * config.max_generations);
  }
  GpStageTimings timings;
  // Scores the unscored members in index order, which fixes where cache
  // hits and misses fall.
  const auto score_fresh = [&](std::vector<Individual>& members) {
    const auto t0 = Clock::now();
    for (Individual& ind : members) {
      if (ind.fresh && score(ind, data, run)) ++timings.evaluations;
    }
    timings.scoring_s += seconds_since(t0);
  };
  score_fresh(population);
  // Coordinate-descent tuning of population[0, n).
  const auto tune_first = [&](std::size_t n) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
      timings.evaluations += tune_constants(population[k], data, run);
    }
    timings.tuning_s += seconds_since(t0);
  };
  // Refine the seed skeletons once up front: the template *shapes* are
  // right, their random constants are not.
  if (config.constant_tuning) tune_first(seed_count);

  // The champion keeps its own copy of its genes.
  Individual best;
  const auto promote = [&run, &best](const Individual& champion) {
    best = champion;
    run.best.assign(champion.genes, champion.genes + champion.bytes);
    best.genes = run.best.data();
  };
  promote(*std::min_element(population.begin(), population.end(), fitter));

  // --- Evolution ---------------------------------------------------------------
  // Absolute form of stopping criterion (ii), anchored to the scaled
  // target's magnitude.
  double mean_abs_y = 0.0;
  for (double y : data.ys) mean_abs_y += std::abs(y);
  mean_abs_y /= static_cast<double>(data.ys.size());
  const double stop_below =
      config.fitness_threshold * std::max(1e-6, mean_abs_y);

  std::size_t generation = 0;
  for (; generation < config.max_generations; ++generation) {
    if (best.fitness <= stop_below) break;  // criterion (ii)
    // Cooperative cancellation (phase watchdog): stop evolving and return
    // the best-so-far instead of wedging a worker past its deadline.
    if (config.cancel != nullptr && config.cancel->expired()) break;

    // The offspring buffer starts with the elite, whose fitness carries
    // over unscored.
    Genes& out = run.generations[(generation + 1) % 2];
    out.clear();
    next.assign(std::max<std::size_t>(1, config.population), Individual{});
    copy_genome(best.view(), out);
    next[0] = best;
    next[0].offset = 0;

    // Breed chunk by chunk, each chunk from its own RNG stream forked
    // from the master in chunk order: the stream a child sees is a
    // function of (seed, generation, chunk) only.
    const auto t0 = Clock::now();
    const std::size_t n_chunks =
        std::max<std::size_t>(1, (offspring + kBreedChunk - 1) / kBreedChunk);
    const std::size_t k = config.tournament;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      util::Rng crng = rng.fork();
      for (std::size_t i = c * offspring / n_chunks;
           i < (c + 1) * offspring / n_chunks; ++i) {
        const double roll = crng.uniform();
        const std::size_t start = out.size();
        // Every operator starts from one tournament winner.
        const Individual& parent = tournament(population, crng, k);
        Bred bred;
        if (roll < config.crossover_rate) {
          const Individual& donor = tournament(population, crng, k);
          bred = crossover(parent.view(), donor.view(), crng,
                           config.max_depth, out);
        } else if (roll <
                   config.crossover_rate + config.subtree_mutation_rate) {
          bred = subtree_mutation(parent.view(), crng, n_vars,
                                  config.max_depth, out);
        } else if (roll < config.crossover_rate +
                              config.subtree_mutation_rate +
                              config.point_mutation_rate) {
          bred = point_mutation(parent.view(), crng, n_vars, out);
        } else {
          bred = copy_genome(parent.view(), out);  // reproduce
        }
        // A child that is not fresh keeps its parent's fitness.
        Individual& child = next[1 + i];
        child = parent;
        child.place(start, out.size(), bred.nodes);
        child.fresh = bred.fresh;
      }
    }
    // The buffer is complete, so its children's pointers are final.
    for (Individual& child : next) child.genes = out.data() + child.offset;
    timings.breeding_s += seconds_since(t0);
    // Scoring draws nothing, so the draws are those of breeding alone.
    score_fresh(next);
    population.swap(next);

    // Refine the constants of the few fittest individuals, then promote
    // the overall champion.
    if (config.constant_tuning) {
      const std::size_t top = std::min<std::size_t>(3, population.size());
      std::partial_sort(population.begin(),
                        population.begin() + static_cast<std::ptrdiff_t>(top),
                        population.end(), fitter);
      tune_first(top);
    }
    const auto it =
        std::min_element(population.begin(), population.end(), fitter);
    if (it->penalized < best.penalized) promote(*it);
  }

  result.best = to_expr(best.view().genes);
  result.best.simplify();
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
