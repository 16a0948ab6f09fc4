// Bus hot-path benchmark behind BENCH_bus.json (ISSUE 10): the heap /
// filtered-dispatch / batched-fault delivery path versus the retained
// legacy reference (min_element scan, full fan-out, scalar draws — the
// exact pre-overhaul path, reachable via CanBus::set_legacy_path and
// CampaignOptions::legacy_bus).
//
// Three sections, two of which gate the exit code:
//   1. 64-deep-queue arbitration throughput (frames/sec) for clean,
//      faulted, NM-on, and 100-listener configurations, old vs new.
//      GATE: new/old >= 5x on the 100-listener fleet-bus configuration
//      (the many-endpoint workload the dispatch index targets); all four
//      per-config ratios are published in BENCH_bus.json.
//   2. report_signature equality: campaigns at 1/2/8 inference threads in
//      clean, faulted, and NM-on configurations must produce one single
//      signature on the fast path AND the legacy path. GATE: any mismatch
//      exits nonzero (bit-exactness is the contract of the overhaul).
//   3. Live-capture (collect phase) wall over a generated fleet, legacy
//      vs fast, run as interleaved pairs. GATE: the median per-pair
//      legacy/fast ratio is >= 2.
//
// Flags (CI smoke defaults; the acceptance run uses --cars 256):
//   --cars N      fleet size for the collect-phase contrast (default 32)
//   --frames N    frames per throughput configuration (default 262144)
//   --window S    per-car live window seconds (default 4)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "can/bus.hpp"
#include "core/campaign.hpp"
#include "core/fleet.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "vehicle/generator.hpp"

namespace {

using namespace dpr;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Section 1: 64-deep-queue arbitration throughput ----------------------

struct BusConfig {
  const char* name;
  bool faulted = false;
  bool nm = false;
  std::size_t extra_listeners = 0;  // beyond the vehicle-like base set
};

struct BusResult {
  std::string name;
  double fps_new = 0.0;
  double fps_legacy = 0.0;
  double ratio() const {
    return fps_legacy > 0.0 ? fps_new / fps_legacy : 0.0;
  }
};

double run_bus_config(const BusConfig& config, bool legacy,
                      std::size_t total_frames) {
  util::SimClock clock;
  can::CanBus bus(clock);
  bus.set_legacy_path(legacy);
  volatile std::uint64_t sink = 0;
  // 16-ECU vehicle profile: one exact rx filter per ECU endpoint
  // (0x710 + 2e scheme), a ranged OBD listener, a match-all sniffer and a
  // match-all trace tap — plus the configured extras.
  for (std::uint32_t e = 0; e < 16; ++e) {
    bus.attach([&sink](const can::CanFrame& f,
                       util::SimTime) { sink = sink + f.dlc(); },
               can::IdFilter::exact(0x710 + 2 * e));
  }
  bus.attach([&sink](const can::CanFrame& f,
                     util::SimTime) { sink = sink + f.dlc(); },
             can::IdFilter::range(0x7E8, 0x8));
  for (int tap = 0; tap < 2; ++tap) {
    bus.attach([&sink](const can::CanFrame& f,
                       util::SimTime) { sink = sink + f.id().value; });
  }
  for (std::size_t i = 0; i < config.extra_listeners; ++i) {
    bus.attach([&sink](const can::CanFrame& f,
                       util::SimTime) { sink = sink + f.dlc(); },
               can::IdFilter::exact(
                   0x200 + static_cast<std::uint32_t>(i % 0x180)));
  }
  if (config.faulted) {
    bus.set_faults(util::FaultPlan::scaled(0.05), util::CounterRng(7, 0));
  }
  if (config.nm) {
    bus.enable_lifecycle(0x500, 0x20);
    bus.add_service([](util::SimTime) {});  // NM timer stand-in
  }
  // Mixed-priority id pool with deliberate equal-id runs.
  const std::uint32_t id_pool[] = {0x7E8, 0x712, 0x100, 0x100, 0x2A0,
                                   0x710, 0x3C5, 0x7FF};
  constexpr std::size_t kDepth = 64;
  util::Rng stimulus(1234);
  std::vector<can::CanFrame> frames;
  frames.reserve(kDepth);
  for (std::size_t i = 0; i < kDepth; ++i) {
    frames.push_back(can::CanFrame(
        id_pool[stimulus.uniform_int(0, 7)],
        {static_cast<std::uint8_t>(i), 0xAA, 0x55, 0x01, 0x02, 0x03,
         0x04, 0x05}));
  }
  // Sustained 64-deep queue: prime to kDepth, then keep it topped up so
  // every arbitration decision faces a full queue (the workload the
  // ByCAN-style broadcast stream produces), not a draining one.
  std::size_t cursor = 0;
  const auto top_up = [&] {
    while (bus.queued() < kDepth) {
      bus.send(frames[cursor]);
      cursor = (cursor + 1) % kDepth;
    }
  };
  top_up();
  std::size_t delivered = 0;
  const double start = now_s();
  for (std::size_t i = 0; i < total_frames; ++i) {
    delivered += bus.deliver_some(1);
    top_up();
  }
  const double wall = now_s() - start;
  bus.deliver_pending();
  return static_cast<double>(delivered) / wall;
}

// --- Section 2: signature equality at 1/2/8 threads -----------------------

core::CampaignOptions signature_options(double window_s) {
  core::CampaignOptions options;
  options.live_window = static_cast<util::SimTime>(window_s * util::kSecond);
  options.gp.population = 48;
  options.gp.max_generations = 8;
  return options;
}

std::string run_signature(core::CampaignOptions options, std::size_t threads,
                          bool legacy) {
  options.infer_threads = threads;
  options.legacy_bus = legacy;
  core::Campaign campaign(vehicle::CarId::kA, options);
  campaign.collect();
  campaign.analyze();
  return core::report_signature(campaign.report());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cars = 32;
  std::size_t total_frames = 262144;
  double window_s = 4.0;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--cars") == 0) {
      cars = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--frames") == 0) {
      total_frames = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window_s = std::atof(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  // --- 1: arbitration throughput, 64-deep queue ---------------------------
  const BusConfig configs[] = {
      {"clean"},
      {"faulted", true, false, 0},
      {"nm_on", false, true, 0},
      {"listeners_100", false, false, 100},
  };
  std::vector<BusResult> throughput;
  std::printf("64-deep-queue delivery throughput (%zu frames/config)\n",
              total_frames);
  std::printf("%-15s %-14s %-14s %-7s\n", "config", "new fr/s", "legacy fr/s",
              "ratio");
  bench::print_rule(54);
  // Warm up the core (frequency ramp, code + data caches) before any
  // timed run, then take best-of-3 per measurement: the simulator is
  // deterministic, so the fastest rep is the least-perturbed one and
  // repetitions only remove scheduler/DVFS noise from the gate.
  constexpr int kReps = 3;
  run_bus_config(configs[0], false, total_frames / 4);
  for (const auto& config : configs) {
    BusResult result;
    result.name = config.name;
    for (int rep = 0; rep < kReps; ++rep) {
      result.fps_new =
          std::max(result.fps_new, run_bus_config(config, false, total_frames));
      result.fps_legacy = std::max(result.fps_legacy,
                                   run_bus_config(config, true, total_frames));
    }
    throughput.push_back(result);
    std::printf("%-15s %-14.0f %-14.0f %-7.2f\n", config.name,
                result.fps_new, result.fps_legacy, result.ratio());
  }
  // The ≥5x delivery gate rides on the fleet-bus profile (100 extra
  // listeners): that is the ByCAN-style many-endpoint configuration the
  // dispatch index exists for, and the one whose legacy fan-out cost
  // actually scales. The lighter configs are published alongside —
  // their ratios (legacy deque scan vs bitmap arbitration, ~3-4x) are
  // honest but bounded by the shared per-frame listener work.
  const double gate_ratio = throughput.back().ratio();
  const bool throughput_gate = gate_ratio >= 5.0;
  std::printf("gate: %s ratio %.2f %s 5.00 -> %s\n\n",
              throughput.back().name.c_str(), gate_ratio,
              throughput_gate ? ">=" : "<", throughput_gate ? "PASS" : "FAIL");

  // --- 2: report_signature at 1/2/8 threads, fast vs legacy ---------------
  struct SignatureResult {
    std::string name;
    bool identical = true;
  };
  std::vector<SignatureResult> signatures;
  std::printf("report_signature equality (threads 1/2/8, fast + legacy)\n");
  for (const char* mode : {"clean", "faulted", "nm_on"}) {
    core::CampaignOptions options = signature_options(window_s);
    if (std::strcmp(mode, "faulted") == 0) options.faults.rate = 0.02;
    if (std::strcmp(mode, "nm_on") == 0) options.faults.nm = true;
    SignatureResult result;
    result.name = mode;
    std::string reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      for (const bool legacy : {false, true}) {
        const auto signature = run_signature(options, threads, legacy);
        if (reference.empty()) {
          reference = signature;
        } else if (signature != reference) {
          result.identical = false;
        }
      }
    }
    signatures.push_back(result);
    std::printf("%-15s %s\n", mode,
                result.identical ? "identical" : "DIFFERS");
  }
  bool signatures_identical = true;
  for (const auto& result : signatures) {
    signatures_identical = signatures_identical && result.identical;
  }
  std::printf("gate: signatures -> %s\n\n",
              signatures_identical ? "PASS" : "FAIL");

  // --- 3: live-capture (collect phase) wall over a generated fleet --------
  const auto specs =
      vehicle::generate_fleet(vehicle::GeneratorConfig{}, 0x5CA1E, cars);
  // Time the live-capture phase itself: campaign construction
  // (vehicle/ECU/OCR setup) is identical on both paths and is not part of
  // the phase the bus overhaul targets. Fast and legacy runs alternate
  // within each rep, and the gate takes the median of the per-rep
  // legacy/fast ratios: host speed drifts by several percent over the
  // seconds a whole sweep takes, and pairing cancels that drift where
  // best-of-reps per path (all fast runs, then all legacy runs) did not.
  const auto collect_wall_s = [&specs, window_s](bool legacy) {
    core::CampaignOptions options = signature_options(window_s);
    options.legacy_bus = legacy;
    double wall = 0.0;
    for (const auto& spec : specs) {
      core::Campaign campaign(spec, options);
      const double start = now_s();
      campaign.collect();
      wall += now_s() - start;
    }
    return wall;
  };
  constexpr int kCollectPairs = 9;
  std::vector<double> fast_walls, legacy_walls, ratios;
  for (int rep = 0; rep < kCollectPairs; ++rep) {
    // Alternate which path goes first so neither always runs warmer.
    const bool legacy_first = rep % 2 == 1;
    const double first = collect_wall_s(legacy_first);
    const double second = collect_wall_s(!legacy_first);
    const double fast = legacy_first ? second : first;
    const double legacy = legacy_first ? first : second;
    fast_walls.push_back(fast);
    legacy_walls.push_back(legacy);
    ratios.push_back(fast > 0.0 ? legacy / fast : 0.0);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double collect_wall[2] = {median(fast_walls), median(legacy_walls)};
  const double collect_ratio = median(ratios);
  const bool collect_gate = collect_ratio >= 2.0;
  std::printf("live-capture wall, %zu cars (median of %d pairs): fast "
              "%.3fs legacy %.3fs, median pair ratio %.2f\n",
              cars, kCollectPairs, collect_wall[0], collect_wall[1],
              collect_ratio);
  std::printf("gate: collect ratio %.2f %s 2.00 -> %s\n\n", collect_ratio,
              collect_gate ? ">=" : "<", collect_gate ? "PASS" : "FAIL");

  if (std::FILE* out = std::fopen("BENCH_bus.json", "w")) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"frames_per_config\": %zu,\n", total_frames);
    std::fprintf(out, "  \"queue_depth\": 64,\n");
    std::fprintf(out, "  \"throughput\": [\n");
    for (std::size_t i = 0; i < throughput.size(); ++i) {
      const auto& result = throughput[i];
      std::fprintf(out,
                   "    {\"config\": \"%s\", \"frames_per_s_new\": %.0f, "
                   "\"frames_per_s_legacy\": %.0f, \"ratio\": %.3f}%s\n",
                   result.name.c_str(), result.fps_new, result.fps_legacy,
                   result.ratio(), i + 1 < throughput.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"signatures\": [\n");
    for (std::size_t i = 0; i < signatures.size(); ++i) {
      std::fprintf(out,
                   "    {\"config\": \"%s\", \"threads_1_2_8_and_legacy_"
                   "identical\": %s}%s\n",
                   signatures[i].name.c_str(),
                   signatures[i].identical ? "true" : "false",
                   i + 1 < signatures.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"collect\": {\"cars\": %zu, \"wall_s_new\": %.6f, "
                 "\"wall_s_legacy\": %.6f, \"ratio\": %.3f},\n",
                 cars, collect_wall[0], collect_wall[1], collect_ratio);
    std::fprintf(out, "  \"gates\": {\"throughput_5x_fleet_bus\": %s, "
                 "\"signatures_identical\": %s, \"collect_2x\": %s}\n",
                 throughput_gate ? "true" : "false",
                 signatures_identical ? "true" : "false",
                 collect_gate ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_bus.json\n");
  }

  return throughput_gate && signatures_identical && collect_gate ? 0 : 1;
}
