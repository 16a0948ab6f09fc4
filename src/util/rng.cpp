#include "util/rng.hpp"

#include <cmath>

namespace dpr::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  has_cached_normal_ = false;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  // Unsigned subtraction: hi - lo would overflow std::int64_t for the
  // full-range request (and UBSan rightly objects).
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire multiply-shift with rejection: `x % span` over-weights the low
  // residues whenever span does not divide 2^64, which skews exactly the
  // small-range draws the GP engine leans on (tournament selection,
  // mutation-site picks). Rejecting the partial final interval makes every
  // residue equally likely; the expected number of extra draws is < 1 even
  // in the worst case.
  std::uint64_t x = (*this)();
  auto product = static_cast<unsigned __int128>(x) * span;
  auto low = static_cast<std::uint64_t>(product);
  if (low < span) {
    const std::uint64_t threshold = (0 - span) % span;
    while (low < threshold) {
      x = (*this)();
      product = static_cast<unsigned __int128>(x) * span;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(product >> 64));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Rng Rng::fork() { return Rng((*this)() ^ 0xD1B54A32D192ED03ULL); }

Rng::State Rng::state() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.cached_normal = cached_normal_;
  state.has_cached_normal = has_cached_normal_;
  return state;
}

void Rng::restore(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

}  // namespace dpr::util
