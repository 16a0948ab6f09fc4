// fleetbench: the program behind the repo benchmark (README.md next to this
// file has the workloads, the metrics and the layer mapping).
//
// One process runs one workload as a closed-loop batch load: successive
// batches of specs go through core::FleetRunner::run, each call waiting
// for its slowest car, until the time budget is spent. The batch specs,
// campaign seeds, GP seeds and fault seeds are all derived from --seed;
// the program under test only ever sees the generated specs and options.
//
// With --trace 1 the same batches run a second time through the public
// Campaign::collect()/analyze() split, and each layer's public functions
// are replayed on the campaign's artifacts inside child spans. Spans stay
// in memory and are written to --spans at exit; run.py turns them into the
// per-layer metrics.
//
// The last line of stdout is one JSON object of raw measurements.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "can/sniffer.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "cps/ocr.hpp"
#include "frames/analysis.hpp"
#include "frames/fields.hpp"
#include "gp/engine.hpp"
#include "isotp/isotp.hpp"
#include "kwp/message.hpp"
#include "oemtp/bmw_framing.hpp"
#include "regress/regress.hpp"
#include "screenshot/extract.hpp"
#include "screenshot/filter.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vehicle/generator.hpp"
#include "vwtp/vwtp.hpp"

namespace {

using namespace dpr;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64 finalizer over (seed, stream, index): every derived seed is
/// a pure function of the benchmark seed, so a seed replays its inputs.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream * 0x10001 + index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_string(const std::string& text) {
  return util::fnv1a64_str(text, 0xCBF29CE484222325ULL);
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t batch_cars = 0;   // generated cars per batch
  /// Batches every timed pass completes, however short its time budget:
  /// a fixed floor on the campaign count keeps the tail percentile run.py
  /// picks the same from run to run.
  std::size_t min_batches = 1;
  std::size_t probe_cars = 0;   // determinism-probe prefix of batch 0
  /// The determinism probe stops after align and resumes, and the traced
  /// run measures the checkpoint store.
  bool checkpoints = false;
  /// Sanity floor on GP-correct / formula signals; 0 when GP is off.
  double min_gp_precision = 0.0;
  core::CampaignOptions campaign;
};

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  auto& c = w.campaign;
  if (name == "generated-fleet") {
    // The bench_scale profile: many small GP searches.
    w.batch_cars = 256;
    w.min_batches = 4;
    w.probe_cars = 16;
    w.min_gp_precision = 0.7;
    c.live_window = 4 * util::kSecond;
    c.gp.population = 64;
  } else if (name == "traffic-only") {
    // GP bypassed: collect and OCR/extract carry the run.
    w.batch_cars = 512;
    w.min_batches = 8;
    w.probe_cars = 32;
    c.live_window = 16 * util::kSecond;
    c.run_inference = false;
    c.run_baselines = false;
  } else if (name == "faulted-resume") {
    // Lossy bus, ECU reboots, S3 timers and NM. The timed batches do not
    // checkpoint: fsync'd saves serialize on the store's directory lock,
    // which ties throughput to the disk's fsync latency rather than to
    // the program. The probe resumes; the traced run times the store.
    w.batch_cars = 64;
    w.min_batches = 4;
    w.probe_cars = 8;
    w.checkpoints = true;
    w.min_gp_precision = 0.3;
    c.live_window = 4 * util::kSecond;
    c.gp.population = 64;
    c.faults.rate = 0.02;
    c.faults.reset_rate = 0.01;
    c.faults.session_faults = true;
    c.faults.nm = true;
  } else {
    return std::nullopt;
  }
  return w;
}

struct Batch {
  std::vector<vehicle::CarSpec> specs;
  core::CampaignOptions campaign;
};

Batch make_batch(const Workload& w, std::uint64_t seed, std::size_t index) {
  Batch batch;
  batch.campaign = w.campaign;
  batch.campaign.seed = derive(seed, 2, index);
  batch.campaign.gp.seed = derive(seed, 3, index);
  if (w.campaign.faults.enabled()) {
    batch.campaign.faults.fault_seed = derive(seed, 4, index);
  }
  batch.specs = vehicle::generate_fleet(vehicle::GeneratorConfig{},
                                        derive(seed, 1, index), w.batch_cars);
  return batch;
}

/// One FleetRunner::run over `specs` with the batch's options. `interrupt`
/// stops every campaign after align and resumes it from its checkpoint in
/// `ckpt_dir`.
core::FleetSummary run_fleet(const Batch& batch,
                             const std::vector<vehicle::CarSpec>& specs,
                             std::size_t threads, bool interrupt,
                             const std::string& ckpt_dir) {
  core::FleetOptions options;
  options.fleet_threads = threads;
  options.campaign = batch.campaign;
  if (interrupt) {
    options.campaign.checkpoint_dir = ckpt_dir;
    options.campaign.stop_after_phase = 3;  // ...align
    core::FleetRunner(options).run(specs);
    options.campaign.stop_after_phase = -1;
    options.campaign.resume = true;
  }
  return core::FleetRunner(options).run(specs);
}

std::string prefix_signature(const core::FleetSummary& summary,
                             std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n && i < summary.reports.size(); ++i) {
    out += core::report_signature(summary.reports[i]);
  }
  return out;
}

// --- Process counters ----------------------------------------------------------

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double ctx_switches = 0.0;

  static Usage of(int who) {
    rusage ru{};
    getrusage(who, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = static_cast<double>(ru.ru_minflt);
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minor_faults += o.minor_faults;
    ctx_switches += o.ctx_switches;
    return *this;
  }
  Usage operator-(const Usage& o) const {
    return Usage{user_s - o.user_s, sys_s - o.sys_s,
                 minor_faults - o.minor_faults,
                 ctx_switches - o.ctx_switches};
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Timed (untraced) pass -------------------------------------------------------

struct PassResult {
  std::size_t batches = 0;
  double wall_s = 0.0;                 // sum of batch walls
  std::vector<double> campaign_walls;  // report.phases.total_s()
  Usage usage;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t formula_signals = 0;
  std::size_t gp_correct = 0;
  std::size_t messages_missing = 0;    // completed campaigns with no traffic
  /// report_signature hash per car, kept only for a traced run to check.
  std::vector<std::uint64_t> car_hashes;
  std::string probe_signature;         // prefix of batch 0
  /// FNV-1a over batch 0's per-car signature hashes: batch 0 is a pure
  /// function of the seed, however many batches the time budget allows.
  std::uint64_t digest = 0xCBF29CE484222325ULL;
};

/// One timed set-up, appended to `samples`: what a run pays before its
/// first campaign — the specs of the batch floor and the checkpoint
/// directory. The fleet's pool starts inside FleetRunner::run, so its cost
/// is in every batch's wall. (A bare util::ThreadPool is not started here:
/// destroying one right after construction can lose the stop wakeup and
/// hang in join.)
std::vector<Batch> set_up(const Workload& w, std::uint64_t seed,
                          const std::string& ckpt_dir,
                          std::vector<double>& samples) {
  const auto t0 = Clock::now();
  std::vector<Batch> batches;
  for (std::size_t b = 0; b < w.min_batches; ++b) {
    batches.push_back(make_batch(w, seed, b));
  }
  if (w.checkpoints) {
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);
    core::CheckpointStore(ckpt_dir).heal();
  }
  samples.push_back(seconds_between(t0, Clock::now()));
  return batches;
}

/// Runs batches until both the time budget and the workload's batch floor
/// are met. `prepared` holds the batches set-up already built; later ones
/// are built here, outside the timed region. A set-up is also timed after
/// every batch, so the set-up median samples the whole run, as the timed
/// metrics do, rather than its first milliseconds.
PassResult timed_pass(const Workload& w, std::uint64_t seed,
                      std::size_t threads, double seconds,
                      std::vector<Batch> prepared, const std::string& ckpt_dir,
                      std::vector<double>& setup_samples, bool keep_hashes) {
  PassResult pass;
  for (std::size_t b = 0; b < w.min_batches || pass.wall_s < seconds; ++b) {
    const Batch batch = b < prepared.size() ? std::move(prepared[b])
                                            : make_batch(w, seed, b);
    const Usage before = Usage::of(RUSAGE_SELF);
    const auto t0 = Clock::now();
    const auto summary = run_fleet(batch, batch.specs, threads, false, "");
    pass.wall_s += seconds_between(t0, Clock::now());
    pass.usage += Usage::of(RUSAGE_SELF) - before;
    ++pass.batches;
    set_up(w, seed, ckpt_dir, setup_samples);

    if (b == 0) pass.probe_signature = prefix_signature(summary, w.probe_cars);
    for (const auto& report : summary.reports) {
      ++pass.attempted;
      if (!report.completed) ++pass.failed;
      if (report.completed && report.messages_assembled == 0) {
        ++pass.messages_missing;
      }
      pass.campaign_walls.push_back(report.phases.total_s());
      pass.formula_signals += report.formula_signals();
      pass.gp_correct += report.gp_correct();
      if (b == 0 || keep_hashes) {
        const auto h = hash_string(core::report_signature(report));
        if (keep_hashes) pass.car_hashes.push_back(h);
        if (b == 0) pass.digest = util::fnv1a64_u64(h, pass.digest);
      }
    }
  }
  return pass;
}

// --- Spans ------------------------------------------------------------------------

struct Span {
  std::uint64_t campaign = 0;  // shared by every span of one campaign
  std::uint32_t id = 0;
  std::int64_t parent = -1;    // -1 = root
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::pair<const char*, double>> attrs;
};

/// Per-worker span buffer for one campaign's tree.
class Tracer {
 public:
  Tracer(std::vector<Span>& sink, std::uint64_t campaign)
      : sink_(sink), campaign_(campaign) {}

  std::size_t open(const char* name, std::int64_t parent) {
    Span span;
    span.campaign = campaign_;
    span.id = next_id_++;
    span.parent = parent;
    span.name = name;
    span.start = Clock::now();
    sink_.push_back(std::move(span));
    return sink_.size() - 1;
  }
  void close(std::size_t index) { sink_[index].end = Clock::now(); }
  std::int64_t id_of(std::size_t index) const { return sink_[index].id; }
  void attr(std::size_t index, const char* key, double value) {
    sink_[index].attrs.emplace_back(key, value);
  }

 private:
  std::vector<Span>& sink_;
  std::uint64_t campaign_;
  std::uint32_t next_id_ = 0;
};

/// Span name of the transport-layer replay for a car's transport.
const char* transport_span(vehicle::TransportKind kind) {
  switch (kind) {
    case vehicle::TransportKind::kIsoTp:
      return "isotp.replay";
    case vehicle::TransportKind::kVwTp20:
      return "vwtp.replay";
    case vehicle::TransportKind::kBmwFraming:
      return "oemtp.replay";
  }
  return "isotp.replay";
}

frames::TransportHint hint_for(vehicle::TransportKind kind) {
  switch (kind) {
    case vehicle::TransportKind::kIsoTp:
      return frames::TransportHint::kIsoTp;
    case vehicle::TransportKind::kVwTp20:
      return frames::TransportHint::kVwTp20;
    case vehicle::TransportKind::kBmwFraming:
      return frames::TransportHint::kBmwFraming;
  }
  return frames::TransportHint::kIsoTp;
}

struct Reassembled {
  std::uint32_t can_id = 0;
  std::uint8_t address = 0;  // BMW target byte; 0 elsewhere
  util::Bytes payload;
};

struct TransportReplay {
  std::vector<Reassembled> messages;
  std::size_t errors = 0;
};

/// Passive reassembly of a capture through the transport layer's own
/// reassemblers, per CAN id (and per BMW target byte), with the same
/// screening frames::assemble applies.
TransportReplay replay_transport(
    vehicle::TransportKind kind,
    const std::vector<can::TimestampedFrame>& capture) {
  TransportReplay out;
  switch (kind) {
    case vehicle::TransportKind::kIsoTp: {
      std::map<std::uint32_t, isotp::Reassembler> reassemblers;
      for (const auto& rec : capture) {
        const std::uint32_t id = rec.frame.id().value;
        if (auto payload = reassemblers[id].feed(rec.frame)) {
          out.messages.push_back({id, 0, std::move(*payload)});
        }
      }
      for (const auto& [id, r] : reassemblers) out.errors += r.errors();
      break;
    }
    case vehicle::TransportKind::kVwTp20: {
      std::map<std::uint32_t, vwtp::Reassembler> reassemblers;
      for (const auto& rec : capture) {
        const auto frame_kind = vwtp::classify(rec.frame);
        if (!frame_kind || vwtp::is_control_frame(*frame_kind)) continue;
        const std::uint32_t id = rec.frame.id().value;
        if (auto payload = reassemblers[id].feed(rec.frame)) {
          out.messages.push_back({id, 0, std::move(*payload)});
        }
      }
      for (const auto& [id, r] : reassemblers) {
        out.errors += r.sequence_errors();
      }
      break;
    }
    case vehicle::TransportKind::kBmwFraming: {
      std::map<std::pair<std::uint32_t, std::uint8_t>, isotp::Reassembler>
          reassemblers;
      for (const auto& rec : capture) {
        const auto address = oemtp::bmw_target_ecu(rec.frame);
        const auto inner = oemtp::strip_address(rec.frame);
        if (!address || !inner) continue;
        const std::uint32_t id = rec.frame.id().value;
        if (auto payload = reassemblers[{id, *address}].feed(*inner)) {
          out.messages.push_back({id, *address, std::move(*payload)});
        }
      }
      for (const auto& [key, r] : reassemblers) out.errors += r.errors();
      break;
    }
  }
  return out;
}

struct TracedOutcome {
  bool completed = false;
  std::uint64_t hash = 0;
  bool replay_ok = true;  // every replay reproduced the campaign's product
  std::string mismatch;
};

/// GP config of one signal, derived exactly as Campaign::infer_signals does.
gp::GpConfig signal_gp_config(const core::CampaignOptions& options,
                              const core::SignalFinding& finding) {
  gp::GpConfig config = options.gp;
  config.seed ^= (static_cast<std::uint64_t>(finding.did) << 16) ^
                 finding.local_id ^ (finding.esv_index << 8);
  return config;
}

TracedOutcome traced_campaign(const vehicle::CarSpec& spec,
                              core::CampaignOptions options,
                              std::uint64_t campaign_id,
                              const std::string& ckpt_dir,
                              std::vector<Span>& sink) {
  TracedOutcome outcome;
  Tracer tr(sink, campaign_id);
  const std::size_t root = tr.open("campaign", -1);
  const std::int64_t root_id = tr.id_of(root);
  // GP runs inline on this worker, so per-thread counters see it.
  options.infer_pool = nullptr;
  options.infer_threads = 1;
  try {
    core::Campaign campaign(spec, options);
    std::size_t s = tr.open("collect", root_id);
    campaign.collect();
    tr.close(s);
    s = tr.open("analyze", root_id);
    campaign.analyze();
    tr.close(s);
    const core::CampaignReport& report = campaign.report();

    const std::size_t replay = tr.open("replay", root_id);
    const std::int64_t replay_id = tr.id_of(replay);
    const auto& capture = campaign.capture();

    // CAN: the capture through a fresh bus and sniffer.
    s = tr.open("can.replay", replay_id);
    {
      util::SimClock clock;
      can::CanBus bus(clock);
      can::Sniffer sniffer(bus);
      constexpr std::size_t kWindow = 64;
      for (std::size_t i = 0; i < capture.size(); ++i) {
        bus.send(capture[i].frame);
        if ((i + 1) % kWindow == 0) bus.deliver_pending();
      }
      bus.deliver_pending();
      if (sniffer.size() != capture.size()) {
        outcome.replay_ok = false;
        outcome.mismatch = "can replay lost frames";
      }
    }
    tr.close(s);
    tr.attr(s, "frames", static_cast<double>(capture.size()));

    // Transport reassembly.
    const auto kind = spec.transport;
    s = tr.open(transport_span(kind), replay_id);
    const TransportReplay transport = replay_transport(kind, capture);
    tr.close(s);
    tr.attr(s, "frames", static_cast<double>(capture.size()));
    tr.attr(s, "messages", static_cast<double>(transport.messages.size()));
    tr.attr(s, "errors", static_cast<double>(transport.errors));
    if (transport.messages.size() != report.messages_assembled) {
      outcome.replay_ok = false;
      outcome.mismatch = "transport replay message count";
    }

    // Diagnostic servers: every assembled request, routed as
    // vehicle::EcuSim::dispatch routes it.
    std::vector<std::pair<uds::Server*, const util::Bytes*>> uds_requests;
    std::vector<std::pair<kwp::Server*, const util::Bytes*>> kwp_requests;
    for (const auto& msg : transport.messages) {
      if (msg.payload.empty()) continue;
      for (auto& ecu : campaign.vehicle().ecus()) {
        if (ecu->request_id() != msg.can_id) continue;
        if (kind == vehicle::TransportKind::kBmwFraming &&
            ecu->spec().address != msg.address) {
          continue;
        }
        const std::uint8_t sid = msg.payload[0];
        const bool to_kwp =
            spec.protocol == vehicle::Protocol::kKwp2000 ||
            (sid == kwp::kIoControlByLocalId &&
             spec.io_service == vehicle::IoService::kKwp30);
        if (to_kwp) {
          kwp_requests.emplace_back(&ecu->kwp_server(), &msg.payload);
        } else {
          uds_requests.emplace_back(&ecu->uds_server(), &msg.payload);
        }
        break;
      }
    }
    s = tr.open("uds.replay", replay_id);
    for (const auto& [server, request] : uds_requests) server->respond(*request);
    tr.close(s);
    tr.attr(s, "requests", static_cast<double>(uds_requests.size()));
    s = tr.open("kwp.replay", replay_id);
    for (const auto& [server, request] : kwp_requests) server->respond(*request);
    tr.close(s);
    tr.attr(s, "requests", static_cast<double>(kwp_requests.size()));

    // Frames analysis.
    s = tr.open("frames.assemble", replay_id);
    const auto messages = frames::assemble(capture, hint_for(kind));
    tr.close(s);
    tr.attr(s, "frames", static_cast<double>(capture.size()));
    if (messages.size() != report.messages_assembled) {
      outcome.replay_ok = false;
      outcome.mismatch = "frames::assemble message count";
    }
    s = tr.open("frames.extract", replay_id);
    const auto extraction = frames::extract_fields(messages);
    tr.close(s);
    tr.attr(s, "esvs", static_cast<double>(extraction.esvs.size()));

    // Screenshot analysis on a fresh OCR engine.
    s = tr.open("cps.extract", replay_id);
    cps::OcrEngine ocr(util::Rng(derive(options.seed, 5, campaign_id)),
                       options.ocr_noise, options.ocr_rate_scale);
    auto samples = screenshot::extract_samples(campaign.video(), ocr);
    tr.close(s);
    tr.attr(s, "frames", static_cast<double>(campaign.video().frames.size()));
    tr.attr(s, "strings_read", static_cast<double>(ocr.stats().strings_read));
    tr.attr(s, "strings_correct",
            static_cast<double>(ocr.stats().strings_correct));
    s = tr.open("screenshot.filter", replay_id);
    const std::size_t samples_in = samples.size();
    const auto kept = screenshot::filter_samples(std::move(samples));
    tr.close(s);
    tr.attr(s, "samples", static_cast<double>(samples_in));
    tr.attr(s, "kept", static_cast<double>(kept.size()));

    // Formula inference, one span per signal, on this thread.
    for (const auto& finding : report.signals) {
      if (finding.is_enum) continue;
      if (options.run_inference) {
        const Usage before = Usage::of(RUSAGE_THREAD);
        s = tr.open("gp.infer", replay_id);
        const auto result = gp::infer_formula(
            finding.dataset, signal_gp_config(options, finding));
        tr.close(s);
        const Usage used = Usage::of(RUSAGE_THREAD) - before;
        tr.attr(s, "minor_faults", used.minor_faults);
        if (result.has_value() != finding.gp.has_value() ||
            (result && (result->formula != finding.gp->formula ||
                        result->fitness != finding.gp->fitness))) {
          outcome.replay_ok = false;
          outcome.mismatch = "gp replay differs from campaign";
        }
        if (result) {
          const auto& t = result->timings;
          tr.attr(s, "total_s", t.total_s);
          tr.attr(s, "breeding_s", t.breeding_s);
          tr.attr(s, "scoring_s", t.scoring_s);
          tr.attr(s, "tuning_s", t.tuning_s);
          tr.attr(s, "evaluations", static_cast<double>(t.evaluations));
          tr.attr(s, "cache_hits", static_cast<double>(t.cache_hits));
          tr.attr(s, "cache_misses", static_cast<double>(t.cache_misses));
          tr.attr(s, "converged", result->converged ? 1.0 : 0.0);
        }
      }
      if (options.run_baselines) {
        s = tr.open("regress.fit", replay_id);
        const auto linear = regress::fit_linear(finding.dataset);
        const auto poly = regress::fit_polynomial(finding.dataset);
        tr.close(s);
        if (linear.has_value() != finding.linear.has_value() ||
            poly.has_value() != finding.polynomial.has_value()) {
          outcome.replay_ok = false;
          outcome.mismatch = "regression replay differs from campaign";
        }
      }
    }

    // Checkpoint store: the campaign's full state, fsync'd save + load.
    if (!ckpt_dir.empty()) {
      const core::CheckpointStore store(ckpt_dir);
      const auto payload = campaign.serialize_state_versioned(
          core::kCheckpointPayloadSchema);
      const std::uint64_t car = campaign.checkpoint_car_key();
      const std::uint64_t digest = campaign.checkpoint_options_digest();
      s = tr.open("checkpoint.save", replay_id);
      const auto saved = store.save(car, options.seed, digest,
                                    core::Campaign::kNumPhases - 1, payload);
      tr.close(s);
      tr.attr(s, "bytes", static_cast<double>(payload.size()));
      s = tr.open("checkpoint.load", replay_id);
      const auto loaded = store.load(car, options.seed, digest);
      tr.close(s);
      tr.attr(s, "bytes", static_cast<double>(payload.size()));
      if (!saved || !loaded || loaded->payload != payload) {
        outcome.replay_ok = false;
        outcome.mismatch = "checkpoint round trip";
      }
      store.remove(car, options.seed, digest);
    }
    tr.close(replay);

    const auto& p = report.phases;
    tr.attr(root, "phase.collect_s", p.collect_s);
    tr.attr(root, "phase.assemble_s", p.assemble_s);
    tr.attr(root, "phase.ocr_extract_s", p.ocr_extract_s);
    tr.attr(root, "phase.align_s", p.align_s);
    tr.attr(root, "phase.associate_s", p.associate_s);
    tr.attr(root, "phase.infer_s", p.infer_s);
    tr.attr(root, "phase.score_s", p.score_s);
    std::size_t points = 0;
    for (const auto& finding : report.signals) {
      points += finding.dataset.points.size();
    }
    tr.attr(root, "anchors", static_cast<double>(report.alignment_anchors));
    tr.attr(root, "dataset_points", static_cast<double>(points));
    tr.attr(root, "drops", static_cast<double>(report.bus_faults.dropped));
    tr.attr(root, "corrupt", static_cast<double>(report.bus_faults.corrupted));
    tr.attr(root, "duplicates",
            static_cast<double>(report.bus_faults.duplicated));
    tr.attr(root, "retries",
            static_cast<double>(report.transactions.retries +
                                report.transactions.busy_retries));
    tr.attr(root, "failures",
            static_cast<double>(report.transactions.failures));
    tr.attr(root, "sleeps", static_cast<double>(report.nm.sleeps));
    tr.attr(root, "ring_repairs", static_cast<double>(report.nm.ring_repairs));
    tr.close(root);  // the signature below is the benchmark's own work
    outcome.completed = report.completed;
    outcome.hash = hash_string(core::report_signature(report));
  } catch (const std::exception& e) {
    outcome.completed = false;
    outcome.mismatch = e.what();
    for (std::size_t i = root; i < sink.size(); ++i) {
      if (sink[i].end < sink[i].start) tr.close(i);
    }
  }
  return outcome;
}

struct TracedPass {
  double wall_s = 0.0;
  std::size_t cars = 0;
  std::size_t failed = 0;
  std::size_t signature_mismatches = 0;
  std::size_t replay_mismatches = 0;
  std::string first_mismatch;
  std::vector<Span> spans;
};

/// Runs the untraced pass's batches again, traced, and checks every car
/// against its untraced signature.
TracedPass traced_pass(const Workload& w, std::uint64_t seed,
                       const PassResult& untraced, std::size_t threads,
                       const std::string& ckpt_dir) {
  TracedPass pass;
  std::vector<std::vector<Span>> sinks(threads);
  std::size_t car_base = 0;
  for (std::size_t b = 0; b < untraced.batches; ++b) {
    const Batch batch = make_batch(w, seed, b);
    const std::size_t n = batch.specs.size();
    std::vector<TracedOutcome> outcomes(n);
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = next++; i < n; i = next++) {
          outcomes[i] = traced_campaign(
              batch.specs[i], batch.campaign, car_base + i,
              w.checkpoints ? ckpt_dir : std::string(), sinks[t]);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    pass.wall_s += seconds_between(t0, Clock::now());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& o = outcomes[i];
      if (!o.completed) ++pass.failed;
      if (!o.completed || o.hash != untraced.car_hashes[car_base + i]) {
        ++pass.signature_mismatches;
        if (pass.first_mismatch.empty()) {
          pass.first_mismatch = batch.specs[i].label + ": " +
                                (o.mismatch.empty() ? "signature differs"
                                                    : o.mismatch);
        }
      } else if (!o.replay_ok) {
        ++pass.replay_mismatches;
        if (pass.first_mismatch.empty()) {
          pass.first_mismatch = batch.specs[i].label + ": " + o.mismatch;
        }
      }
    }
    car_base += n;
    pass.cars += n;
  }
  for (auto& sink : sinks) {
    for (auto& span : sink) pass.spans.push_back(std::move(span));
  }
  return pass;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count());
  };
  for (const auto& span : spans) {
    std::fprintf(f, "%llu\t%u\t%lld\t%s\t%lld\t%lld",
                 static_cast<unsigned long long>(span.campaign), span.id,
                 static_cast<long long>(span.parent), span.name,
                 ns(span.start), ns(span.end));
    for (const auto& [key, value] : span.attrs) {
      std::fprintf(f, "\t%s=%.17g", key, value);
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

// --- Output -------------------------------------------------------------------------

class JsonOut {
 public:
  void num(const char* key, double value) {
    sep();
    std::printf("\"%s\": %.17g", key, value);
  }
  void boolean(const char* key, bool value) {
    sep();
    std::printf("\"%s\": %s", key, value ? "true" : "false");
  }
  void str(const char* key, const std::string& value) {
    sep();
    std::printf("\"%s\": \"", key);
    for (char c : value) {
      if (c == '"' || c == '\\') std::putchar('\\');
      std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    std::putchar('"');
  }
  void list(const char* key, const std::vector<double>& values) {
    sep();
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf(i == 0 ? "%.17g" : ", %.17g", values[i]);
    }
    std::putchar(']');
  }
  void usage(const Usage& u) {
    num("user_s", u.user_s);
    num("sys_s", u.sys_s);
    num("minor_faults", u.minor_faults);
    num("ctx_switches", u.ctx_switches);
  }
  void open() { std::putchar('{'); }
  void close() { std::printf("}\n"); }

 private:
  void sep() {
    if (!first_) std::printf(", ");
    first_ = false;
  }
  bool first_ = true;
};

int usage_error(const char* why) {
  std::fprintf(stderr,
               "fleetbench: %s\n"
               "usage: fleetbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--spans <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string workdir;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage_error("missing flag value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--workdir") {
      workdir = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage_error("unknown flag");
    }
  }
  const auto workload = make_workload(workload_name);
  if (!workload) return usage_error("unknown workload");
  if (seconds <= 0.0 || workdir.empty()) return usage_error("bad arguments");
  if (trace && spans_path.empty()) return usage_error("--trace 1 needs --spans");
  const Workload& w = *workload;
  const Clock::time_point epoch = Clock::now();

  const std::size_t threads =
      std::min<std::size_t>(util::ThreadPool::resolve(0), 4);
  const std::string ckpt_dir = workdir + "/ckpt";

  std::vector<double> setup_samples;
  std::vector<Batch> prepared;
  for (int rep = 0; rep < 3; ++rep) {
    prepared = set_up(w, seed, ckpt_dir, setup_samples);
  }

  // Determinism probe: a prefix of batch 0 at one thread (uninterrupted)
  // and at the fleet's thread count (the workload's own path).
  const Batch& probe_batch = prepared.front();
  const std::size_t prepared_cars = probe_batch.specs.size();
  const std::vector<vehicle::CarSpec> probe_specs(
      probe_batch.specs.begin(),
      probe_batch.specs.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(w.probe_cars, probe_batch.specs.size())));
  const std::string serial_signature = prefix_signature(
      run_fleet(probe_batch, probe_specs, 1, false, ckpt_dir), w.probe_cars);
  const std::string parallel_signature = prefix_signature(
      run_fleet(probe_batch, probe_specs, threads, w.checkpoints, ckpt_dir),
      w.probe_cars);

  // The traced run times exactly the batch floor, so its per-layer counts
  // are a pure function of the seed; the time goes to tracing it.
  const double untraced_seconds = trace ? 0.0 : seconds;
  const PassResult pass =
      timed_pass(w, seed, threads, untraced_seconds, std::move(prepared),
                 ckpt_dir, setup_samples, trace);

  JsonOut out;
  out.open();
  out.str("workload", w.name);
  out.num("seed", static_cast<double>(seed));
  out.num("threads", static_cast<double>(threads));
  out.num("batches", static_cast<double>(pass.batches));
  out.num("min_campaigns",
          static_cast<double>(w.min_batches * prepared_cars));
  out.list("setup_s", setup_samples);
  out.num("attempted", static_cast<double>(pass.attempted));
  out.num("failed", static_cast<double>(pass.failed));
  out.num("wall_s", pass.wall_s);
  out.list("campaign_walls", pass.campaign_walls);
  out.usage(pass.usage);
  out.num("formula_signals", static_cast<double>(pass.formula_signals));
  out.num("gp_correct", static_cast<double>(pass.gp_correct));
  out.num("min_gp_precision", w.min_gp_precision);
  out.num("messages_missing", static_cast<double>(pass.messages_missing));
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(pass.digest));
  out.str("digest", digest);
  out.boolean("threads_agree", serial_signature == parallel_signature);
  out.boolean("repeat_agrees", parallel_signature == pass.probe_signature);

  if (trace) {
    TracedPass traced = traced_pass(w, seed, pass, threads, ckpt_dir);
    out.num("traced_wall_s", traced.wall_s);
    out.num("traced_cars", static_cast<double>(traced.cars));
    out.num("traced_failed", static_cast<double>(traced.failed));
    out.num("traced_signature_mismatches",
            static_cast<double>(traced.signature_mismatches));
    out.num("traced_replay_mismatches",
            static_cast<double>(traced.replay_mismatches));
    out.str("traced_first_mismatch", traced.first_mismatch);
    out.boolean("spans_written",
                write_spans(spans_path, traced.spans, epoch));
  }
  out.num("peak_rss_mb", peak_rss_mb());
  out.close();
  std::filesystem::remove_all(ckpt_dir);
  return 0;
}
