// Procedural-fleet scaling benchmark behind BENCH_scale.json: generated
// fleets of 64 / 256 / 1024 vehicles (vehicle::Generator, fixed seed)
// driven through core::FleetRunner, recording the cars-vs-wall-clock
// curve, peak RSS, the aggregate FitnessCache hit rate and the
// checkpoint-store fan-out of an interrupted tier.
//
// Two determinism probes ride along on the smallest tier:
//   * the fleet signature at 1, 2 and 8 fleet threads must be identical;
//   * an interrupt (stop_after_phase) + resume must reproduce the
//     uninterrupted signature bit for bit.
//
// GP-call page-fault gate: after the timed tiers, every GP search of
// each tier is replayed on a fresh thread with getrusage(RUSAGE_THREAD)
// around each gp::infer_formula call. The replay must reproduce each
// campaign's formula and fitness, and a call may take at most 64 minor
// page faults on average. A call's working memory is its thread's own,
// reused from the previous call, so a warm call faults almost nothing;
// building a megabyte-sized table per call costs hundreds. Before each
// call the replay hands all free heap memory back to the kernel (see
// replay), so memory a call allocates faults on every call instead of
// whenever the heap layout lets it. The fault gate is skipped in
// sanitizer builds, whose shadow memory faults on its own.
//
// GP-call allocation gate: the same replay counts the heap allocations
// each gp::infer_formula call makes (this binary replaces the global
// operator new with one that counts per thread), and a call may make at
// most kMaxAllocsPerGpCall on average. A search that allocates per node
// or per offspring costs thousands; the set-up a call needs (scaled
// samples, least-squares solves, the result) costs about a hundred. Like
// the fault gate, it is skipped in sanitizer builds, which keep their own
// allocator.
//
// Flags (all optional, for CI smoke runs on small machines):
//   --max-cars N    cap the largest tier (default 1024)
//   --threads N     fleet threads for the timed runs (default 0 = all)
//   --window S      per-ECU live window seconds (default 4)
//   --population P  GP population (default 64)
//   --gen-seed S    generator base seed (default 0x5CA1E)

#include <sys/prctl.h>
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/fleet.hpp"
#include "gp/engine.hpp"
#include "vehicle/generator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DPR_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DPR_SANITIZED_BUILD 1
#endif
#endif
#ifndef DPR_SANITIZED_BUILD
#define DPR_SANITIZED_BUILD 0
#endif

namespace {

using namespace dpr;

constexpr bool kSanitizedBuild = DPR_SANITIZED_BUILD;

constexpr double kMaxFaultsPerGpCall = 64.0;
constexpr double kMaxAllocsPerGpCall = 400.0;

/// Heap allocations made by this thread, counted by the replacement
/// operator new below.
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocations;
  void* p = nullptr;
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

long minor_faults_this_thread() {
  struct rusage usage {};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  double rate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

CacheStats cache_stats(const core::FleetSummary& summary) {
  CacheStats stats;
  for (const auto& report : summary.reports) {
    for (const auto& signal : report.signals) {
      if (!signal.gp) continue;
      stats.hits += signal.gp->timings.cache_hits;
      stats.misses += signal.gp->timings.cache_misses;
    }
  }
  return stats;
}

/// One GP search a campaign ran, with what it found.
struct GpSearch {
  correlate::Dataset dataset;
  gp::GpConfig config;
  std::string formula;
  double fitness = 0.0;
};

std::vector<GpSearch> gp_searches(const core::FleetSummary& summary,
                                  const gp::GpConfig& base) {
  std::vector<GpSearch> searches;
  for (const auto& report : summary.reports) {
    for (const auto& signal : report.signals) {
      if (!signal.gp) continue;
      searches.push_back({signal.dataset, core::signal_gp_config(base, signal),
                          signal.gp->formula, signal.gp->fitness});
    }
  }
  return searches;
}

struct GpReplay {
  std::size_t calls = 0;
  long minor_faults = 0;
  std::uint64_t allocations = 0;
  bool identical = true;
  double per_call(double total) const {
    return calls == 0 ? 0.0 : total / static_cast<double>(calls);
  }
  double faults_per_call() const {
    return per_call(static_cast<double>(minor_faults));
  }
  double allocs_per_call() const {
    return per_call(static_cast<double>(allocations));
  }
};

/// Re-run `searches` on a fresh thread, like one of the fleet's pool
/// workers, counting the minor page faults and heap allocations inside
/// the infer_formula calls only. The first call warms the thread's GP
/// workspace; that one-time cost is part of the per-call figures.
///
/// Left alone, the allocator serves a call from memory an earlier call
/// freed, and whether that memory is still mapped depends on heap layout:
/// one 4 MiB table per call measured anywhere from 0 to 990 faults per
/// call. So before each call malloc_trim(0) returns every free page to
/// the kernel, and transparent huge pages are turned off for the rest of
/// the process, so each fresh 4 KiB page a call touches is one fault.
/// Memory a thread keeps across calls stays mapped and costs nothing. The
/// timed tiers ran before this, with both left at their defaults.
GpReplay replay(const std::vector<GpSearch>& searches) {
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
  GpReplay out;
  std::exception_ptr error;
  std::thread([&] {
    try {
      for (const auto& search : searches) {
#if defined(__GLIBC__)
        malloc_trim(0);
#endif
        const long before = minor_faults_this_thread();
        const std::uint64_t allocations_before = t_allocations;
        const auto result = gp::infer_formula(search.dataset, search.config);
        out.allocations += t_allocations - allocations_before;
        out.minor_faults += minor_faults_this_thread() - before;
        ++out.calls;
        if (!result || result->formula != search.formula ||
            result->fitness != search.fitness) {
          out.identical = false;
        }
      }
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return out;
}

std::size_t count_checkpoints(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") ++count;
  }
  return count;
}

}  // namespace

// Global allocation functions for this binary: count, then allocate. Not
// installed in sanitizer builds, whose runtime provides its own.
#if !DPR_SANITIZED_BUILD
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif

int main(int argc, char** argv) {
  std::size_t max_cars = 1024;
  std::size_t n_threads = 0;
  double window_s = 4.0;
  std::size_t population = 64;
  std::uint64_t gen_seed = 0x5CA1E;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--max-cars") == 0) {
      max_cars = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      n_threads = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window_s = std::atof(next());
    } else if (std::strcmp(argv[i], "--population") == 0) {
      population = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--gen-seed") == 0) {
      gen_seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  core::FleetOptions options;
  options.campaign.live_window =
      static_cast<util::SimTime>(window_s * util::kSecond);
  options.campaign.gp.population = population;
  options.fleet_threads = n_threads;

  std::vector<std::size_t> tiers;
  for (std::size_t size : {std::size_t{64}, std::size_t{256},
                           std::size_t{1024}}) {
    if (size <= max_cars) tiers.push_back(size);
  }
  if (tiers.empty()) tiers.push_back(max_cars);

  std::printf("Procedural fleet scaling: tiers up to %zu cars, "
              "%u hardware threads\n\n",
              tiers.back(), std::thread::hardware_concurrency());

  // Determinism probe 1: the smallest tier at 1 / 2 / 8 fleet threads.
  const auto probe_specs =
      vehicle::generate_fleet(vehicle::GeneratorConfig{}, gen_seed,
                              tiers.front());
  std::string probe_signature;
  bool threads_identical = true;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    core::FleetOptions probe_options = options;
    probe_options.fleet_threads = threads;
    const auto summary = core::FleetRunner(probe_options).run(probe_specs);
    const auto signature = core::fleet_signature(summary);
    if (probe_signature.empty()) {
      probe_signature = signature;
    } else if (signature != probe_signature) {
      threads_identical = false;
    }
    std::printf("threads=%zu: %zu cars ok, signature %s\n", threads,
                summary.cars_ok(),
                signature == probe_signature ? "identical" : "DIFFERS");
  }

  // Determinism probe 2: interrupt the same tier after the align phase,
  // count the per-car checkpoint fan-out, then resume to completion.
  const std::string ckpt_dir = "bench_scale_ckpt";
  std::filesystem::remove_all(ckpt_dir);
  core::FleetOptions resume_options = options;
  resume_options.fleet_threads = 1;
  resume_options.campaign.checkpoint_dir = ckpt_dir;
  resume_options.campaign.stop_after_phase = 3;  // ...align
  core::FleetRunner(resume_options).run(probe_specs);
  const std::size_t checkpoint_files = count_checkpoints(ckpt_dir);
  resume_options.campaign.stop_after_phase = -1;
  resume_options.campaign.resume = true;
  const auto resumed = core::FleetRunner(resume_options).run(probe_specs);
  const bool resume_identical =
      core::fleet_signature(resumed) == probe_signature;
  std::filesystem::remove_all(ckpt_dir);
  std::printf("interrupt/resume: %zu checkpoint files for %zu cars, "
              "resumed signature %s\n\n",
              checkpoint_files, probe_specs.size(),
              resume_identical ? "identical" : "DIFFERS");

  // The cars-vs-wall curve: every tier is a fresh generated fleet with
  // the same base seed, so tier N's cars are a prefix of tier N+1's.
  struct TierResult {
    std::size_t cars = 0;
    double wall_s = 0.0;
    std::size_t cars_ok = 0;
    std::size_t signals = 0;
    std::size_t ecrs = 0;
    CacheStats cache;
    long peak_rss_kb = 0;
    GpReplay replay;
  };
  std::vector<TierResult> results;
  std::vector<std::vector<GpSearch>> searches;
  std::printf("%-8s %-10s %-8s %-9s %-7s %-10s %-12s\n", "cars", "wall s",
              "ok", "#signals", "#ECR", "cache hit", "peak RSS MB");
  bench::print_rule(68);
  for (std::size_t size : tiers) {
    const auto specs =
        vehicle::generate_fleet(vehicle::GeneratorConfig{}, gen_seed, size);
    const auto summary = core::FleetRunner(options).run(specs);
    TierResult tier;
    tier.cars = size;
    tier.wall_s = summary.wall_s;
    tier.cars_ok = summary.cars_ok();
    tier.signals = summary.total_signals();
    tier.ecrs = summary.total_ecrs();
    tier.cache = cache_stats(summary);
    tier.peak_rss_kb = peak_rss_kb();
    searches.push_back(gp_searches(summary, options.campaign.gp));
    results.push_back(tier);
    std::printf("%-8zu %-10.3f %-8zu %-9zu %-7zu %-10s %-12.1f\n",
                tier.cars, tier.wall_s, tier.cars_ok, tier.signals,
                tier.ecrs,
                bench::percent(tier.cache.hits,
                               tier.cache.hits + tier.cache.misses)
                    .c_str(),
                static_cast<double>(tier.peak_rss_kb) / 1024.0);
  }

  std::vector<GpReplay> replays;
  for (const auto& tier_searches : searches) {
    replays.push_back(replay(tier_searches));
  }
  bool replay_identical = true;
  bool faults_ok = true;
  bool allocs_ok = true;
  std::printf("\nGP replay, one fresh thread per tier (bounds: %.0f minor "
              "faults and %.0f allocations per call%s)\n",
              kMaxFaultsPerGpCall, kMaxAllocsPerGpCall,
              kSanitizedBuild ? ", not enforced in a sanitizer build" : "");
  std::printf("%-8s %-9s %-12s %-12s %-10s\n", "cars", "GP calls",
              "faults/call", "allocs/call", "results");
  bench::print_rule(55);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].replay = replays[i];
    const auto& replay = replays[i];
    replay_identical = replay_identical && replay.identical;
    faults_ok = faults_ok && replay.faults_per_call() <= kMaxFaultsPerGpCall;
    allocs_ok = allocs_ok && replay.allocs_per_call() <= kMaxAllocsPerGpCall;
    std::printf("%-8zu %-9zu %-12.2f %-12.1f %-10s\n", results[i].cars,
                replay.calls, replay.faults_per_call(),
                replay.allocs_per_call(),
                replay.identical ? "identical" : "DIFFER");
  }

  if (std::FILE* out = std::fopen("BENCH_scale.json", "w")) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"gen_seed\": %llu,\n",
                 static_cast<unsigned long long>(gen_seed));
    std::fprintf(out, "  \"window_s\": %.3f,\n", window_s);
    std::fprintf(out, "  \"population\": %zu,\n", population);
    std::fprintf(out, "  \"fleet_threads\": %zu,\n", n_threads);
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"threads_1_2_8_identical\": %s,\n",
                 threads_identical ? "true" : "false");
    std::fprintf(out, "  \"resume_identical\": %s,\n",
                 resume_identical ? "true" : "false");
    std::fprintf(out, "  \"checkpoint_files\": %zu,\n", checkpoint_files);
    std::fprintf(out, "  \"gp_replay_identical\": %s,\n",
                 replay_identical ? "true" : "false");
    std::fprintf(out, "  \"gp_faults_per_call_bound\": %.1f,\n",
                 kMaxFaultsPerGpCall);
    std::fprintf(out, "  \"gp_fault_gate_enforced\": %s,\n",
                 kSanitizedBuild ? "false" : "true");
    std::fprintf(out, "  \"gp_allocs_per_call_bound\": %.1f,\n",
                 kMaxAllocsPerGpCall);
    std::fprintf(out, "  \"gp_alloc_gate_enforced\": %s,\n",
                 kSanitizedBuild ? "false" : "true");
    std::fprintf(out, "  \"tiers\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& tier = results[i];
      std::fprintf(out,
                   "    {\"cars\": %zu, \"wall_s\": %.6f, "
                   "\"cars_ok\": %zu, \"signals\": %zu, \"ecrs\": %zu, "
                   "\"cache_hits\": %zu, \"cache_misses\": %zu, "
                   "\"cache_hit_rate\": %.4f, \"peak_rss_kb\": %ld, "
                   "\"gp_calls\": %zu, \"gp_minor_faults_per_call\": %.3f, "
                   "\"gp_allocs_per_call\": %.1f}%s\n",
                   tier.cars, tier.wall_s, tier.cars_ok, tier.signals,
                   tier.ecrs, tier.cache.hits, tier.cache.misses,
                   tier.cache.rate(), tier.peak_rss_kb, tier.replay.calls,
                   tier.replay.faults_per_call(),
                   tier.replay.allocs_per_call(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_scale.json\n");
  }

  // Determinism is the hard requirement, and a GP call must neither page
  // in fresh memory nor allocate per node; wall clock and RSS are host
  // facts, reported but never asserted.
  const bool memory_gated = (faults_ok && allocs_ok) || kSanitizedBuild;
  return threads_identical && resume_identical && replay_identical &&
                 memory_gated
             ? 0
             : 1;
}
