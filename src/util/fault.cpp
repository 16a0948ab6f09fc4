#include "util/fault.hpp"

#include <algorithm>

#include "util/philox.hpp"

namespace dpr::util {

namespace {

// Salt constant for counter-based fault streams. Deliberately distinct from
// the 0x...E019 constant inside rng_for(): bumping it when the injector
// migrated from sequential to per-unit counter draws makes the stream-format
// break explicit — old and new builds never silently share a stream.
constexpr std::uint64_t kFaultStreamSaltV2 = 0x632BE59BD9B4E01BULL;

}  // namespace

FaultPlan FaultPlan::scaled(double rate) {
  rate = std::clamp(rate, 0.0, 1.0);
  FaultPlan plan;
  plan.drop_rate = rate;
  plan.corrupt_rate = rate * 0.5;
  plan.duplicate_rate = rate * 0.25;
  plan.jitter_rate = std::min(1.0, rate * 2.0);
  plan.burst_rate = rate * 0.02;
  return plan;
}

FaultStats& FaultStats::operator+=(const FaultStats& other) {
  delivered += other.delivered;
  dropped += other.dropped;
  corrupted += other.corrupted;
  duplicated += other.duplicated;
  jittered += other.jittered;
  bursts += other.bursts;
  return *this;
}

namespace {

// Shared draw-consumption logic for raw decisions: the exact uniform /
// Lemire reductions of CounterRng, fed by any 64-bit word source. The
// scalar path (raw_decide) and the batch path (decide_batch) both run
// this body, so they are bit-identical by construction — the only thing
// that differs is where the Philox words come from.
template <typename NextWord>
FaultInjector::RawDecision raw_from_words(const FaultPlan& plan,
                                          NextWord&& next) {
  auto uniform01 = [&next] {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  };
  auto chance = [&](double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  };
  auto uniform_int = [&next](std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // full range
    std::uint64_t x = next();
    auto product = static_cast<unsigned __int128>(x) * span;
    auto low = static_cast<std::uint64_t>(product);
    if (low < span) {
      const std::uint64_t threshold = (0 - span) % span;
      while (low < threshold) {
        x = next();
        product = static_cast<unsigned __int128>(x) * span;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(lo) +
        static_cast<std::uint64_t>(product >> 64));
  };

  // All of unit n's draws come from event n, in a fixed intra-event order
  // (burst, drop, corrupt + corrupt_bit, duplicate, jitter + delay).
  // Conditional draws advance only this event's index, so they can never
  // shift another unit's fate.
  FaultInjector::RawDecision raw;
  if (plan.burst_rate > 0.0 && chance(plan.burst_rate)) {
    raw.burst_start = true;
    return raw;
  }
  if (plan.drop_rate > 0.0 && chance(plan.drop_rate)) {
    raw.drop = true;
    return raw;
  }
  if (plan.corrupt_rate > 0.0 && chance(plan.corrupt_rate)) {
    raw.corrupt = true;
    raw.corrupt_bit = static_cast<std::uint32_t>(uniform_int(0, 63));
  }
  if (plan.duplicate_rate > 0.0 && chance(plan.duplicate_rate)) {
    raw.duplicate = true;
  }
  if (plan.jitter_rate > 0.0 && chance(plan.jitter_rate)) {
    raw.jitter = true;
    raw.extra_delay = uniform_int(0, plan.max_jitter);
  }
  return raw;
}

}  // namespace

FaultInjector::Decision FaultInjector::decide(SimTime now) {
  const std::uint64_t unit = next_unit_++;
  if (unit - raw_base_ < raw_count_) {
    return resolve(raws_[unit - raw_base_], now);
  }
  return decide_unit(unit, now);
}

FaultInjector::Decision FaultInjector::decide_unit(std::uint64_t unit,
                                                   SimTime now) {
  Decision decision;
  if (!plan_.enabled()) {
    ++stats_.delivered;
    return decision;  // no draws: fault-free runs stay bit-identical
  }
  // Units inside an active burst window are swallowed without consulting
  // the stream; with counter draws that is a non-event anyway (event `unit`
  // simply goes unread), but it keeps the swallow path branch-cheap.
  if (now < burst_until_) {
    decision.drop = true;
    ++stats_.dropped;
    return decision;
  }
  return resolve(raw_decide(unit), now);
}

FaultInjector::RawDecision FaultInjector::raw_decide(
    std::uint64_t unit) const {
  if (!plan_.enabled()) return RawDecision{};
  std::uint64_t index = 0;
  return raw_from_words(plan_, [this, unit, &index] {
    return stream_.word_at(unit, index++);
  });
}

void FaultInjector::decide_batch(std::uint64_t first_unit, std::size_t n,
                                 RawDecision* out) const {
  if (!plan_.enabled()) {
    for (std::size_t i = 0; i < n; ++i) out[i] = RawDecision{};
    return;
  }
  const std::uint64_t key = stream_.key();
  // Worst case a unit consumes 7 words (burst + drop + corrupt +
  // corrupt_bit + duplicate + jitter + delay) when every Lemire draw
  // accepts on the first word; rejections overflow to scalar word_at.
  constexpr std::size_t kCols = 8;
  for (std::size_t block = 0; block < n; block += 4) {
    const std::uint64_t e0 = first_unit + block;
    const std::uint64_t c0[4] = {e0, e0 + 1, e0 + 2, e0 + 3};
    std::uint64_t cols[kCols][4];
    std::size_t filled = 0;
    // Columns (draw indices) are generated lazily, 4 units wide: most
    // units stop after 2-3 draws, so later columns are usually never
    // computed at all.
    auto word = [&](std::size_t lane, std::uint64_t index) {
      if (index >= kCols) return stream_.word_at(e0 + lane, index);
      while (filled <= index) {
        const std::uint64_t c1[4] = {filled, filled, filled, filled};
        philox2x64x4(key, c0, c1, cols[filled]);
        ++filled;
      }
      return cols[index][lane];
    };
    const std::size_t lanes = n - block < 4 ? n - block : 4;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::uint64_t index = 0;
      out[block + lane] = raw_from_words(
          plan_, [&word, lane, &index] { return word(lane, index++); });
    }
  }
}

FaultInjector::Decision FaultInjector::resolve(const RawDecision& raw,
                                               SimTime now) {
  Decision decision;
  if (!plan_.enabled()) {
    ++stats_.delivered;
    return decision;
  }
  if (now < burst_until_) {
    decision.drop = true;
    ++stats_.dropped;
    return decision;
  }
  if (raw.burst_start) {
    burst_until_ = now + plan_.burst_duration;
    ++stats_.bursts;
    decision.drop = true;
    ++stats_.dropped;
    return decision;
  }
  if (raw.drop) {
    decision.drop = true;
    ++stats_.dropped;
    return decision;
  }
  if (raw.corrupt) {
    decision.corrupt = true;
    decision.corrupt_bit = raw.corrupt_bit;
    ++stats_.corrupted;
  }
  if (raw.duplicate) {
    decision.duplicate = true;
    ++stats_.duplicated;
  }
  if (raw.jitter) {
    decision.extra_delay = raw.extra_delay;
    ++stats_.jittered;
  }
  ++stats_.delivered;
  return decision;
}

void FaultInjector::prefetch(std::size_t n) {
  if (!plan_.enabled() || n == 0) return;
  if (n > kPrefetchMax) n = kPrefetchMax;
  // Refill only once the window runs dry. Requiring full coverage of
  // [next_unit_, next_unit_ + n) instead would recompute the whole batch
  // on every call whenever the caller's queue keeps growing (listeners
  // answering requests mid-delivery) — O(window) draws per unit.
  if (next_unit_ >= raw_base_ && next_unit_ < raw_base_ + raw_count_) {
    return;
  }
  decide_batch(next_unit_, n, raws_);
  raw_base_ = next_unit_;
  raw_count_ = n;
}

double FaultConfig::server_pending_rate() const {
  return std::min(1.0, rate * 4.0);
}

double FaultConfig::server_busy_rate() const {
  return std::min(1.0, rate * 2.0);
}

Rng FaultConfig::rng_for(std::uint64_t salt) const {
  // SplitMix-style mix keeps nearby salts (car 0, car 1, ...) decorrelated.
  std::uint64_t mixed = fault_seed ^ (salt * 0x9E3779B97F4A7C15ULL +
                                      0x632BE59BD9B4E019ULL);
  return Rng(mixed);
}

CounterRng FaultConfig::stream_for(std::uint64_t stream_id) const {
  return CounterRng(fault_seed ^ kFaultStreamSaltV2, stream_id);
}

}  // namespace dpr::util
