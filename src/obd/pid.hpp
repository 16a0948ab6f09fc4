#pragma once
// OBD-II (SAE J1979) mode-01 parameter ids with their *documented* decode
// formulas. The standard formulas are the ground truth of §4.2 (Table 5)
// and drive the OBD-II-based clock alignment of §9.4.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/hex.hpp"

namespace dpr::obd {

constexpr std::uint8_t kModeCurrentData = 0x01;
constexpr std::uint8_t kPositiveOffset = 0x40;

struct PidSpec {
  std::uint8_t pid = 0;
  std::string name;
  std::string unit;
  std::size_t data_bytes = 1;
  std::string formula;  // human-readable ground truth, e.g. "X/2.55"
  double min_value = 0.0;
  double max_value = 0.0;
  /// raw bytes -> physical value
  std::function<double(std::span<const std::uint8_t>)> decode;
  /// physical value -> raw bytes (inverse, saturating at range edges)
  std::function<util::Bytes(double)> encode;
};

/// The modeled PID registry: includes the seven Table-5 PIDs (throttle
/// position 0x11, engine load 0x04, fuel level 0x2F, RPM 0x0C, vehicle
/// speed 0x0D, coolant temperature 0x05, intake pressure 0x0B) and other
/// common mode-01 PIDs.
const std::vector<PidSpec>& pid_table();

/// The registry entry for `pid`, or nullptr. Points into pid_table(),
/// which lives for the whole program.
const PidSpec* find_pid(std::uint8_t pid);

/// Mode-01 request "01 <pid>".
util::Bytes encode_request(std::uint8_t pid);

/// Positive response "41 <pid> <data...>".
util::Bytes encode_response(std::uint8_t pid,
                            std::span<const std::uint8_t> data);

struct Response {
  std::uint8_t pid = 0;
  util::Bytes data;
};
std::optional<Response> decode_response(std::span<const std::uint8_t> payload);

/// Convenience: physical value of a response using the standard formula.
std::optional<double> decode_value(std::span<const std::uint8_t> payload);

}  // namespace dpr::obd
