#pragma once
// The Philox2x64-10 block function (Salmon et al., SC'11), shared between
// the sequential CounterRng engine and the 4-lane batch body that
// FaultInjector::decide_batch draws whole delivery windows with. There is
// exactly one definition of the bijection in the codebase.

#include <cstdint>

namespace dpr::util {

// Philox2x64 round constants.
inline constexpr std::uint64_t kPhiloxMul = 0xD2B74407B1CE6E93ULL;
inline constexpr std::uint64_t kPhiloxWeyl = 0x9E3779B97F4A7C15ULL;

/// One Philox2x64-10 block: encrypt counter {c0, c1} under `key`, return
/// word 0. Ten rounds of mulhi/mullo mixing with a Weyl key schedule.
inline std::uint64_t philox2x64(std::uint64_t key, std::uint64_t c0,
                                std::uint64_t c1) {
  std::uint64_t x0 = c0;
  std::uint64_t x1 = c1;
  for (int round = 0; round < 10; ++round) {
    const auto product = static_cast<unsigned __int128>(kPhiloxMul) * x0;
    const auto hi = static_cast<std::uint64_t>(product >> 64);
    const auto lo = static_cast<std::uint64_t>(product);
    x0 = hi ^ key ^ x1;
    x1 = lo;
    key += kPhiloxWeyl;
  }
  return x0;
}

/// out[i] = philox2x64(key, c0[i], c1[i]) for i in 0..3: four CounterRng
/// word_at() results per call. Scalar on purpose: four independent blocks
/// pipeline their native 64-bit multiplies, while AVX2 has no 64x64
/// multiply and measured about 2x slower (DESIGN.md, "Bus scheduling").
inline void philox2x64x4(std::uint64_t key, const std::uint64_t* c0,
                         const std::uint64_t* c1, std::uint64_t* out) {
  out[0] = philox2x64(key, c0[0], c1[0]);
  out[1] = philox2x64(key, c0[1], c1[1]);
  out[2] = philox2x64(key, c0[2], c1[2]);
  out[3] = philox2x64(key, c0[3], c1[3]);
}

}  // namespace dpr::util
