// Golden GP results: per-dataset pins for infer_formula.
//
// Every case below runs one GP search and must reproduce the committed
// line in tests/fixtures/gp/results.txt: the formula, the fitness bits,
// generations_run, the evaluation count and the fitness-cache hits and
// misses. The cases are the synthetic datasets gp_program_test searches,
// a few variant configurations (no seeds or tuning, no scaling, no cache,
// no early stop), a target the seeds cannot fit, and real generated-fleet
// datasets from tests/fixtures/gp/.
//
// Each case runs inline on the test's thread, then all 37 run as one
// gp::BatchRunner batch at 1, 2 and 8 threads. Every result line must
// equal its fixture line byte for byte, cache hits and misses included:
// a search owns its thread's fitness cache, so neither the thread it
// lands on nor the searches beside it can move its cache traffic.
//
// On a mismatch the fresh results land in <build>/tests/gp_golden/; copy
// that file over the fixture only when a change is meant to move results.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gp/batch.hpp"
#include "gp/engine.hpp"

#ifndef DPR_GP_FIXTURE_DIR
#define DPR_GP_FIXTURE_DIR "tests/fixtures/gp"
#endif
#ifndef DPR_GP_GOLDEN_OUT_DIR
#define DPR_GP_GOLDEN_OUT_DIR "gp_golden"
#endif

namespace dpr::gp {
namespace {

struct Case {
  std::string name;
  correlate::Dataset dataset;
  GpConfig config;
};

/// gp_program_test's synthetic dataset (same draws, same truth).
correlate::Dataset synthetic_dataset(std::uint64_t seed, std::size_t n_vars) {
  correlate::Dataset dataset;
  dataset.n_vars = n_vars;
  util::Rng rng(seed);
  for (int i = 0; i < 48; ++i) {
    correlate::DataPoint p;
    p.xs.resize(n_vars);
    for (auto& x : p.xs) x = rng.uniform(0.0, 255.0);
    p.y = n_vars == 1 ? 0.75 * p.xs[0] - 40.0 : p.xs[0] * p.xs[1] / 5.0;
    dataset.points.push_back(std::move(p));
  }
  return dataset;
}

GpConfig small_config(std::size_t population, std::size_t generations) {
  GpConfig config;
  config.population = population;
  config.max_generations = generations;
  return config;
}

std::vector<Case> fleet_cases() {
  std::ifstream in(std::string(DPR_GP_FIXTURE_DIR) + "/fleet_datasets.txt");
  EXPECT_TRUE(in.good()) << "missing fleet_datasets.txt";
  std::vector<Case> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream head(line);
    std::string tag, name, seed;
    std::size_t n_vars = 0, n_points = 0;
    head >> tag >> name >> n_vars >> n_points >> seed;
    Case c{name, {}, small_config(64, 30)};
    c.config.seed = std::stoull(seed, nullptr, 16);
    c.dataset.n_vars = n_vars;
    for (std::size_t i = 0; i < n_points && std::getline(in, line); ++i) {
      std::istringstream row(line);
      std::string word;
      std::vector<double> values;
      while (row >> word) values.push_back(std::strtod(word.c_str(), nullptr));
      correlate::DataPoint p;
      p.y = values.back();
      p.xs.assign(values.begin(), values.end() - 1);
      c.dataset.points.push_back(std::move(p));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const auto synthetic = [&out](std::uint64_t seed, std::size_t n_vars,
                                std::size_t population,
                                std::size_t generations) {
    out.push_back({"synthetic-" + std::to_string(seed) + "-" +
                       std::to_string(n_vars) + "v-pop" +
                       std::to_string(population),
                   synthetic_dataset(seed, n_vars),
                   small_config(population, generations)});
  };
  for (const std::uint64_t seed : {11u, 12u, 44u}) {
    synthetic(seed, 1, 96, 12);
    synthetic(seed, 2, 96, 12);
  }
  synthetic(21, 2, 96, 12);
  synthetic(33, 1, 96, 12);
  synthetic(61, 2, 160, 12);
  synthetic(62, 2, 96, 12);
  for (std::uint64_t seed = 70; seed < 78; ++seed) {
    synthetic(seed, 1 + seed % 2, seed % 2 == 0 ? 64 : 128, 10);
  }

  // Table 8's raw search: random initial population only, every
  // generation run.
  Case raw{"raw-search-11-2v", synthetic_dataset(11, 2), small_config(96, 12)};
  raw.config.seed_templates = false;
  raw.config.seed_least_squares = false;
  raw.config.constant_tuning = false;
  raw.config.fitness_threshold = 0.0;
  out.push_back(raw);
  Case unscaled{"unscaled-12-1v", synthetic_dataset(12, 1),
                small_config(96, 12)};
  unscaled.config.use_scaling = false;
  out.push_back(unscaled);
  Case uncached{"uncached-21-2v", synthetic_dataset(21, 2),
                small_config(96, 12)};
  uncached.config.fitness_cache = false;
  out.push_back(uncached);

  // Seeded searches that never meet the fitness threshold: every
  // generation breeds from the seeds (the two-operand degree-2
  // least-squares seeds are deeper than max_depth) and tunes constants.
  for (const std::uint64_t seed : {11u, 12u}) {
    for (const std::size_t n_vars : {1u, 2u}) {
      Case evolve{"evolve-" + std::to_string(seed) + "-" +
                      std::to_string(n_vars) + "v",
                  synthetic_dataset(seed, n_vars), small_config(64, 8)};
      evolve.config.fitness_threshold = 0.0;
      out.push_back(evolve);
    }
  }
  // A nonlinear target the affine and degree-2 seeds cannot fit.
  for (const std::uint64_t seed : {13u, 14u}) {
    Case root{"sqrt-" + std::to_string(seed), {}, small_config(96, 12)};
    root.config.seed = seed;
    root.dataset.n_vars = 1;
    util::Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      const double x = rng.uniform(1.0, 400.0);
      root.dataset.points.push_back({{x}, 3.0 * std::sqrt(x) + 5.0});
    }
    out.push_back(root);
  }

  auto fleet = fleet_cases();
  for (std::size_t i = 0; i < fleet.size(); i += 4) {
    Case evolve = fleet[i];
    evolve.name = "evolve-" + evolve.name;
    evolve.config.fitness_threshold = 0.0;
    evolve.config.max_generations = 10;
    out.push_back(evolve);
  }
  for (auto& c : fleet) out.push_back(std::move(c));
  return out;
}

std::string result_line(const std::string& name,
                        const std::optional<GpResult>& result) {
  std::ostringstream line;
  line << name << '\t';
  if (!result) {
    line << "none";
    return line.str();
  }
  const auto& t = result->timings;
  char fitness[24];
  std::snprintf(fitness, sizeof fitness, "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(result->fitness)));
  line << result->formula << '\t' << fitness << '\t'
       << result->generations_run << '\t' << t.evaluations << '\t'
       << t.cache_hits << '\t' << t.cache_misses;
  return line.str();
}

std::map<std::string, std::string> load_fixture() {
  std::map<std::string, std::string> lines;
  std::ifstream in(std::string(DPR_GP_FIXTURE_DIR) + "/results.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find('\t'))] = line;
  }
  return lines;
}

TEST(GpGolden, EveryCaseMatchesItsFixtureInlineAndInBatches) {
  const auto fixture = load_fixture();
  const auto all = cases();
  ASSERT_EQ(all.size(), 37u);  // 27 synthetic + 10 fleet-dataset cases
  std::vector<BatchJob> jobs;
  for (const auto& c : all) jobs.push_back({&c.dataset, c.config});

  std::ostringstream fresh;
  fresh << "# name\tformula\tfitness bits\tgenerations\tevaluations\t"
           "cache hits\tcache misses\n";
  bool any_mismatch = false;
  const auto expect_fixture = [&](const std::string& run, std::size_t i,
                                  const std::optional<GpResult>& result) {
    const std::string got = result_line(all[i].name, result);
    const auto it = fixture.find(all[i].name);
    if (it == fixture.end()) {
      ADD_FAILURE() << "no fixture line for " << all[i].name;
      any_mismatch = true;
    } else if (got != it->second) {
      ADD_FAILURE() << run << ":\n  got  " << got << "\n  want "
                    << it->second;
      any_mismatch = true;
    }
    return got;
  };
  for (std::size_t i = 0; i < all.size(); ++i) {
    fresh << expect_fixture("inline", i,
                            infer_formula(all[i].dataset, all[i].config))
          << '\n';
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto results = BatchRunner(threads).run(jobs);
    ASSERT_EQ(results.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      expect_fixture("batch of " + std::to_string(threads) + " threads", i,
                     results[i]);
    }
  }
  if (any_mismatch) {
    std::filesystem::create_directories(DPR_GP_GOLDEN_OUT_DIR);
    std::ofstream(std::string(DPR_GP_GOLDEN_OUT_DIR) + "/results.txt")
        << fresh.str();
  }
}

}  // namespace
}  // namespace dpr::gp
