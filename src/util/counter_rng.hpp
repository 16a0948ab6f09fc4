#pragma once
// Counter-based pseudo-random number generation: Philox2x64-10.
//
// util::Rng (xoshiro) is sequential — draw k exists only after draws
// 0..k-1, so every consumer that replays a stream must reproduce the
// exact draw *order*. CounterRng removes that coupling: each output is a
// pure function of (seed, stream_id, event, draw index), so any event's
// draws can be re-derived in O(1) without generating its predecessors.
// That is what lets fault replay ignore wire-delivery order and lets any
// sub-phase of a campaign re-derive its randomness independently.
//
// The engine is the Philox2x64 bijection of Salmon et al. (SC'11,
// "Parallel random numbers: as easy as 1, 2, 3") at the recommended 10
// rounds: a 128-bit counter block {event, draw index} is encrypted under
// a 64-bit key derived from (seed, stream_id); word 0 of the block is
// the draw. Crush-resistant, stateless, and cheap enough to key one
// sub-stream per delivered frame.
//
// The draw surface (uniform / uniform_int / normal / chance) mirrors
// util::Rng bit-for-bit in its *reduction* logic (same 53-bit mantissa
// construction, same Lemire rejection, same Box-Muller with a cached
// second variate), so call sites migrate by swapping the engine type.

#include <cstdint>
#include <limits>

namespace dpr::util {

/// Philox2x64-10 counter-based engine keyed by (seed, stream_id).
/// Satisfies std::uniform_random_bit_generator. Copies are cheap (five
/// words) — `at(event)` hands out an independently positioned view.
class CounterRng {
 public:
  using result_type = std::uint64_t;

  CounterRng() : CounterRng(0, 0) {}
  CounterRng(std::uint64_t seed, std::uint64_t stream_id);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64-bit word of the current event's sub-stream. Draw j of event
  /// e is philox2x64(key, {e, j}) — independent of every other (e, j).
  result_type operator()();

  /// Reposition onto event `event`, resetting the intra-event draw index
  /// (and the Box-Muller cache) — O(1) random access.
  void seek(std::uint64_t event);

  /// Copy positioned at `event` with a fresh draw index. The idiomatic
  /// random-access form: `stream.at(n).chance(p)` re-derives event n's
  /// first draw no matter what was drawn before.
  CounterRng at(std::uint64_t event) const;

  std::uint64_t event() const { return event_; }
  std::uint64_t draw_index() const { return index_; }

  /// Raw draw `index` of event `event` — the pure Philox word this stream
  /// would produce there, without moving the stream. Draw j of at(e) is
  /// word_at(e, j); the batch body (philox2x64x4) reproduces exactly these
  /// words.
  result_type word_at(std::uint64_t event, std::uint64_t index) const;

  /// The derived Philox key. Batch draw kernels take it to compute many
  /// word_at() results per call; it identifies this (seed, stream) pair.
  std::uint64_t key() const { return key_; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi. Same
  /// Lemire multiply-shift rejection as Rng::uniform_int — unbiased, and
  /// a rejection only advances this event's draw index, never another
  /// event's values.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal variate (Box-Muller, cached second value).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial: true with probability p; draw-free at p<=0 / p>=1
  /// (mirrors Rng::chance, so rate-zero paths stay bit-clean).
  bool chance(double p);

 private:
  std::uint64_t key_ = 0;    // derived from (seed, stream_id), constant
  std::uint64_t event_ = 0;  // counter block high word
  std::uint64_t index_ = 0;  // counter block low word (per-event draws)
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace dpr::util
