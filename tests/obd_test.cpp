#include <gtest/gtest.h>

#include <cmath>

#include "obd/pid.hpp"

namespace dpr::obd {
namespace {

TEST(PidTable, ContainsTheSevenTable5Pids) {
  for (std::uint8_t pid : {0x11, 0x04, 0x2F, 0x0C, 0x0D, 0x05, 0x0B}) {
    EXPECT_NE(find_pid(pid), nullptr) << "missing PID " << int(pid);
  }
}

TEST(PidTable, RpmDecodeMatchesStandard) {
  const auto spec = find_pid(0x0C);
  ASSERT_NE(spec, nullptr);
  const util::Bytes raw{0x1A, 0xF8};
  EXPECT_NEAR(spec->decode(raw), (256.0 * 0x1A + 0xF8) / 4.0, 1e-9);
}

TEST(PidTable, CoolantTempOffset) {
  const auto spec = find_pid(0x05);
  ASSERT_NE(spec, nullptr);
  EXPECT_DOUBLE_EQ(spec->decode(util::Bytes{0x7B}), 0x7B - 40.0);
}

TEST(PidTable, ThrottleScale) {
  const auto spec = find_pid(0x11);
  ASSERT_NE(spec, nullptr);
  EXPECT_NEAR(spec->decode(util::Bytes{0xFF}), 100.0, 0.01);
}

class PidRoundTrip : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(PidRoundTrip, EncodeDecodeConsistentAcrossRange) {
  const auto spec = find_pid(GetParam());
  ASSERT_NE(spec, nullptr);
  for (int step = 0; step <= 10; ++step) {
    const double value =
        spec->min_value +
        (spec->max_value - spec->min_value) * step / 10.0;
    const auto raw = spec->encode(value);
    ASSERT_EQ(raw.size(), spec->data_bytes);
    const double decoded = spec->decode(raw);
    // Round-trip within one quantization step.
    const double quantum =
        (spec->max_value - spec->min_value) /
        std::pow(256.0, static_cast<double>(spec->data_bytes));
    EXPECT_NEAR(decoded, value, quantum * 2 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPids, PidRoundTrip,
                         ::testing::Values(0x04, 0x05, 0x0B, 0x0C, 0x0D,
                                           0x0E, 0x0F, 0x10, 0x11, 0x2F,
                                           0x42, 0x46, 0x5C));

TEST(Protocol, RequestEncoding) {
  EXPECT_EQ(util::to_hex(encode_request(0x0C)), "01 0C");
}

TEST(Protocol, ResponseRoundTrip) {
  const util::Bytes data{0x1A, 0xF8};
  const auto payload = encode_response(0x0C, data);
  EXPECT_EQ(util::to_hex(payload), "41 0C 1A F8");
  const auto decoded = decode_response(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pid, 0x0C);
  EXPECT_EQ(decoded->data, data);
}

TEST(Protocol, DecodeValueAppliesStandardFormula) {
  const auto value = decode_value(util::from_hex("41 0D 64"));
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(*value, 100.0);  // vehicle speed Y = X
}

TEST(Protocol, DecodeValueRejectsMalformed) {
  EXPECT_EQ(decode_value(util::from_hex("41 0C")), std::nullopt);
  EXPECT_EQ(decode_value(util::from_hex("7F 01 12")), std::nullopt);
  // A two-byte PID with one data byte, and a PID outside the registry.
  EXPECT_EQ(decode_value(util::from_hex("41 0C 1A")), std::nullopt);
  EXPECT_EQ(decode_value(util::from_hex("41 FE 12")), std::nullopt);
}

TEST(Protocol, DecodeValueIgnoresTrailingBytes) {
  const auto value = decode_value(util::from_hex("41 0D 64 AA BB"));
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(*value, 100.0);
}

TEST(PidTable, FindPidPointsIntoTheRegistry) {
  for (const auto& spec : pid_table()) {
    EXPECT_EQ(find_pid(spec.pid), &spec);
  }
  EXPECT_EQ(find_pid(0xFE), nullptr);
}

TEST(PidTable, SpecsHaveSaneRangesAndFormulas) {
  for (const auto& spec : pid_table()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.formula.empty());
    EXPECT_LT(spec.min_value, spec.max_value);
    EXPECT_GE(spec.data_bytes, 1u);
    EXPECT_LE(spec.data_bytes, 2u);
  }
}

}  // namespace
}  // namespace dpr::obd
