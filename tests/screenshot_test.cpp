#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <iterator>
#include <string>

#include "cps/camera.hpp"
#include "cps/ocr.hpp"
#include "screenshot/extract.hpp"
#include "screenshot/filter.hpp"
#include "screenshot_oracle.hpp"

namespace dpr::screenshot {
namespace {

cps::Screenshot make_frame(util::SimTime t,
                           std::initializer_list<
                               std::pair<std::string, std::string>> rows) {
  cps::ScreenImage image;
  int row = 0;
  for (const auto& [label, value] : rows) {
    cps::TextRegion name;
    name.truth = label;
    name.bounds = {40, 60 + 40 * row, 400, 36};
    name.row = row;
    image.text_regions.push_back(name);
    cps::TextRegion val;
    val.truth = value;
    val.bounds = {600, 60 + 40 * row, 200, 30};
    val.row = row;
    image.text_regions.push_back(val);
    ++row;
  }
  cps::Screenshot shot;
  shot.timestamp = t;
  shot.width = 1000;
  shot.height = 800;
  shot.image = std::make_shared<const cps::ScreenImage>(std::move(image));
  return shot;
}

TEST(Extract, PairsLabelsAndValuesByRow) {
  cps::VideoRecording video;
  video.frames.push_back(make_frame(
      1000, {{"Engine Speed (rpm)", "3012.5"}, {"Door Status", "ON"}}));
  cps::OcrEngine ocr(util::Rng(1), /*noisy=*/false);
  const auto samples = extract_samples(video, ocr);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "Engine Speed");  // unit stripped
  EXPECT_EQ(samples[0].row, 0);
  ASSERT_TRUE(samples[0].value.has_value());
  EXPECT_DOUBLE_EQ(*samples[0].value, 3012.5);
  EXPECT_EQ(samples[1].name, "Door Status");
  EXPECT_EQ(samples[1].value, std::nullopt);  // enum text
}

TEST(Extract, TimestampsComeFromFrames) {
  cps::VideoRecording video;
  video.frames.push_back(make_frame(1111, {{"A", "1.0"}}));
  video.frames.push_back(make_frame(2222, {{"A", "2.0"}}));
  cps::OcrEngine ocr(util::Rng(1), false);
  const auto samples = extract_samples(video, ocr);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].timestamp, 1111);
  EXPECT_EQ(samples[1].timestamp, 2222);
}

TEST(Extract, ParseValueRejectsPartialNumbers) {
  EXPECT_EQ(parse_value("12.5x"), std::nullopt);
  EXPECT_EQ(parse_value(""), std::nullopt);
  EXPECT_EQ(parse_value("ON"), std::nullopt);
  ASSERT_TRUE(parse_value("-40.5").has_value());
  EXPECT_DOUBLE_EQ(*parse_value("-40.5"), -40.5);
}

TEST(Extract, StripUnitOnlyWhenParenthesized) {
  EXPECT_EQ(strip_unit("Engine Speed (rpm)"), "Engine Speed");
  EXPECT_EQ(strip_unit("Engine Speed"), "Engine Speed");
}

TEST(Filter, RangeForKnownTypes) {
  EXPECT_LE(range_for("Engine Speed").hi, 20000.0);
  EXPECT_LE(range_for("Vehicle Speed").hi, 400.0);
  EXPECT_LE(range_for("Coolant Temperature").hi, 1200.0);
  EXPECT_GE(range_for("Something Exotic").hi, 1e6);
}

TEST(Filter, Stage1RejectsOutOfRangeValues) {
  std::vector<UiSample> samples;
  // "25.0" misread as "2500" km/h — the paper's decimal-drop example.
  samples.push_back(UiSample{1000, 0, "Vehicle Speed", "2500", 2500.0});
  samples.push_back(UiSample{2000, 0, "Vehicle Speed", "25.0", 25.0});
  FilterStats stats;
  const auto kept = filter_samples(samples, &stats);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(*kept[0].value, 25.0);
  EXPECT_EQ(stats.range_rejected, 1u);
}

TEST(Filter, Stage2RemovesStatisticalOutliers) {
  std::vector<UiSample> samples;
  for (int i = 0; i < 20; ++i) {
    samples.push_back(UiSample{i * 1000, 0, "Oil Pressure", "x",
                               200.0 + i});
  }
  // An 11.4 -> 4 style drop: in range, but far from the series.
  samples.push_back(UiSample{30000, 0, "Oil Pressure", "4", 4.0});
  FilterStats stats;
  const auto kept = filter_samples(samples, &stats);
  EXPECT_EQ(kept.size(), 20u);
  EXPECT_EQ(stats.outlier_rejected, 1u);
}

TEST(Filter, NonNumericSamplesPassThrough) {
  std::vector<UiSample> samples{
      UiSample{1000, 0, "Door Status", "ON", std::nullopt}};
  const auto kept = filter_samples(samples);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].value_text, "ON");
}

TEST(Filter, OutlierMaskHandlesConstantSeries) {
  const std::vector<double> constant{5.0, 5.0, 5.0, 5.0, 5.0};
  const auto mask = outlier_mask(constant, 10.0);
  for (bool keep : mask) EXPECT_TRUE(keep);
  // A constant series with one excursion.
  const std::vector<double> spiked{5.0, 5.0, 5.0, 5.0, 50.0};
  const auto spiked_mask = outlier_mask(spiked, 10.0);
  EXPECT_FALSE(spiked_mask[4]);
}

TEST(Filter, SmallSeriesNotFiltered) {
  const std::vector<double> tiny{1.0, 100.0};
  const auto mask = outlier_mask(tiny, 10.0);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
}

TEST(Filter, SeparateSignalsFilteredIndependently) {
  std::vector<UiSample> samples;
  for (int i = 0; i < 10; ++i) {
    samples.push_back(UiSample{i * 1000, 0, "Oil Pressure", "x", 300.0});
    samples.push_back(UiSample{i * 1000, 1, "Battery Voltage", "x", 12.6});
  }
  // 300 would be an outlier for the voltage series but is normal for the
  // pressure series.
  const auto kept = filter_samples(samples);
  EXPECT_EQ(kept.size(), 20u);
}

// --- Differential tests against the pre-grouping stage --------------------
// screenshot_oracle.hpp keeps the stage's former bodies; the production
// stage must reproduce their samples, order, FilterStats and OCR draws.

// Mixed case, substrings of several keywords ("Oil Level Position" holds
// both "level" and "position"), unit suffixes, non-ASCII bytes, and names
// that match no keyword.
const char* const kNames[] = {
    "Engine RPM",
    "Engine Speed (rpm)",
    "engine SPEED",
    "Oil Level Position",
    "Vehicle Speed (km/h)",
    "WHEEL SPEED FL",
    "Coolant Temperature",
    "Battery Voltage (V)",
    "Boost Pressure (kPa)",
    "Steering Angle",
    "Throttle Position (%)",
    "Fuel Level",
    "Engine Torque (Nm)",
    "Door Status",
    "Something Exotic",
    "Intake Temp (\xc2\xb0" "C)",
    "Rpmeter",
    "",
    "Lambda (x)",
    "Torque Rpm Angle",
};

std::string random_number(util::Rng& rng) {
  char buf[32];
  switch (rng.uniform_int(0, 4)) {
    case 0:
      std::snprintf(buf, sizeof buf, "%.1f", rng.uniform(-100.0, 300.0));
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "%.2f", rng.uniform(0.0, 9000.0));
      break;
    case 2:  // far outside every range
      std::snprintf(buf, sizeof buf, "%.0f", rng.uniform(-3e7, 3e7));
      break;
    case 3:
      std::snprintf(buf, sizeof buf, "%d",
                    static_cast<int>(rng.uniform_int(-50, 50)));
      break;
    default:
      std::snprintf(buf, sizeof buf, "%.3f", rng.uniform(-1.0, 1.0));
      break;
  }
  return buf;
}

std::string random_value_text(util::Rng& rng) {
  static const char* const kWords[] = {"ON", "OFF", "12.5x", "", "N/A",
                                       "-", "1e3", " 42"};
  if (rng.chance(0.25)) {
    return kWords[rng.uniform_int(0, std::size(kWords) - 1)];
  }
  return random_number(rng);
}

/// A video whose frames carry random regions: negative rows, row gaps,
/// several regions per row and side, clickable left-side regions, values
/// without labels and labels without values, in random region order.
cps::VideoRecording random_video(util::Rng& rng, int n_frames) {
  cps::VideoRecording video;
  for (int f = 0; f < n_frames; ++f) {
    cps::Screenshot shot;
    shot.timestamp = f * 250000 + rng.uniform_int(0, 999);
    shot.width = rng.chance(0.5) ? 1000 : 999;
    shot.height = 800;
    cps::ScreenImage image;
    const auto n_regions = rng.uniform_int(0, 30);
    for (std::int64_t i = 0; i < n_regions; ++i) {
      cps::TextRegion region;
      region.row = static_cast<int>(rng.uniform_int(-3, 16));
      const bool right = rng.chance(0.5);
      // x == width / 2 is still the left half.
      const int x = rng.chance(0.1) ? shot.width / 2
                                    : (right ? 600 : 40);
      region.bounds = {x, 60 + 40 * std::max(region.row, 0), 300, 30};
      region.clickable = rng.chance(0.2);
      region.font_px = static_cast<int>(rng.uniform_int(8, 40));
      region.truth = right ? random_value_text(rng)
                           : kNames[rng.uniform_int(0, std::size(kNames) - 1)];
      image.text_regions.push_back(std::move(region));
    }
    shot.image = std::make_shared<const cps::ScreenImage>(std::move(image));
    video.frames.push_back(std::move(shot));
  }
  return video;
}

/// Samples for a few names: constant series, series shorter than 4,
/// smooth series with spikes and out-of-range misreads, and non-numeric
/// samples, interleaved in random order.
std::vector<UiSample> random_samples(util::Rng& rng) {
  std::vector<UiSample> samples;
  const auto n_signals = rng.uniform_int(0, 8);
  for (std::int64_t s = 0; s < n_signals; ++s) {
    const std::string name = kNames[rng.uniform_int(0, std::size(kNames) - 1)];
    const auto shape = rng.uniform_int(0, 3);
    const auto length = shape == 0 ? rng.uniform_int(0, 3)
                                   : rng.uniform_int(4, 60);
    const double base = rng.uniform(-50.0, 3000.0);
    for (std::int64_t i = 0; i < length; ++i) {
      UiSample sample;
      sample.timestamp = i * 100000 + rng.uniform_int(0, 99);
      sample.row = static_cast<int>(s);
      sample.name = name;
      if (rng.chance(0.1)) {
        sample.value_text = "ON";
      } else {
        double v = shape == 1 ? base : base + rng.uniform(-5.0, 5.0) * i;
        if (shape != 1 && rng.chance(0.08)) v *= rng.chance(0.5) ? 100 : -7;
        if (shape == 1 && rng.chance(0.05)) v += 1000.0;
        sample.value = v;
        sample.value_text = std::to_string(v);
      }
      samples.push_back(std::move(sample));
    }
  }
  for (std::size_t i = samples.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(samples[i - 1], samples[j]);
  }
  return samples;
}

void expect_same_samples(const std::vector<UiSample>& want,
                         const std::vector<UiSample>& got,
                         const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(where + " sample " + std::to_string(i));
    EXPECT_EQ(want[i].timestamp, got[i].timestamp);
    EXPECT_EQ(want[i].row, got[i].row);
    EXPECT_EQ(want[i].name, got[i].name);
    EXPECT_EQ(want[i].value_text, got[i].value_text);
    ASSERT_EQ(want[i].value.has_value(), got[i].value.has_value());
    if (want[i].value) {
      EXPECT_EQ(*want[i].value, *got[i].value);
    }
  }
}

void expect_same_stats(const FilterStats& want, const FilterStats& got,
                       const std::string& where) {
  EXPECT_EQ(want.numeric_samples, got.numeric_samples) << where;
  EXPECT_EQ(want.range_rejected, got.range_rejected) << where;
  EXPECT_EQ(want.outlier_rejected, got.outlier_rejected) << where;
}

TEST(Differential, RangeForMatchesOracle) {
  for (const char* name : kNames) {
    const RangeLimits want = oracle::range_for(name);
    const RangeLimits got = range_for(name);
    EXPECT_EQ(want.lo, got.lo) << name;
    EXPECT_EQ(want.hi, got.hi) << name;
  }
  // Random spellings built from keyword fragments in random case.
  static const char* const kParts[] = {"engine", " ", "speed", "rpm", "wheel",
                                       "vehicle", "temperature", "voltage",
                                       "pressure", "angle", "position",
                                       "level", "throttle", "torque", "x",
                                       "(", ")", "sp", "eed"};
  util::Rng rng(0x5C4EE);
  for (int i = 0; i < 5000; ++i) {
    std::string name;
    const auto n_parts = rng.uniform_int(0, 5);
    for (std::int64_t p = 0; p < n_parts; ++p) {
      name += kParts[rng.uniform_int(0, std::size(kParts) - 1)];
    }
    for (char& c : name) {
      if (rng.chance(0.3)) c = static_cast<char>(std::toupper(c));
    }
    const RangeLimits want = oracle::range_for(name);
    const RangeLimits got = range_for(name);
    ASSERT_EQ(want.lo, got.lo) << '"' << name << '"';
    ASSERT_EQ(want.hi, got.hi) << '"' << name << '"';
  }
}

TEST(Differential, ExtractMatchesOracleAndDrawsTheSameOcr) {
  util::Rng rng(0xE47AC7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto video = random_video(rng, static_cast<int>(rng.uniform_int(0, 12)));
    const std::uint64_t ocr_seed = rng();
    // A noisy engine so misreads (and their extra draws) are frequent.
    cps::OcrEngine want_ocr(util::Rng(ocr_seed), true, 40.0);
    cps::OcrEngine got_ocr(util::Rng(ocr_seed), true, 40.0);
    const auto want = oracle::extract_samples(video, want_ocr);
    const auto got = extract_samples(video, got_ocr);
    const std::string where = "trial " + std::to_string(trial);
    expect_same_samples(want, got, where);
    const auto want_state = want_ocr.rng_state();
    const auto got_state = got_ocr.rng_state();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(want_state.s[i], got_state.s[i]);
    EXPECT_EQ(want_ocr.stats().strings_read, got_ocr.stats().strings_read);
    EXPECT_EQ(want_ocr.stats().char_errors, got_ocr.stats().char_errors);

    // And the whole stage, extraction then both filter stages.
    FilterStats want_stats, got_stats;
    const auto want_kept = oracle::filter_samples(want, &want_stats);
    const auto got_kept = filter_samples(got, &got_stats);
    expect_same_samples(want_kept, got_kept, where + " filtered");
    expect_same_stats(want_stats, got_stats, where);
  }
}

TEST(Differential, ExtractDuplicateRegionsLaterWins) {
  cps::Screenshot shot = make_frame(1000, {{"Oil Pressure", "1.0"}});
  cps::ScreenImage image = *shot.image;
  cps::TextRegion label2 = image.text_regions[0];
  label2.truth = "Oil Temperature";
  cps::TextRegion value2 = image.text_regions[1];
  value2.truth = "2.0";
  cps::TextRegion clickable = label2;
  clickable.truth = "Back";
  clickable.clickable = true;  // a left-side button: read, never a label
  image.text_regions.push_back(label2);
  image.text_regions.push_back(value2);
  image.text_regions.push_back(clickable);
  shot.image = std::make_shared<const cps::ScreenImage>(std::move(image));
  cps::VideoRecording video;
  video.frames.push_back(shot);
  cps::OcrEngine want_ocr(util::Rng(1), false), got_ocr(util::Rng(1), false);
  const auto want = oracle::extract_samples(video, want_ocr);
  const auto got = extract_samples(video, got_ocr);
  expect_same_samples(want, got, "duplicates");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].name, "Oil Temperature");
  EXPECT_EQ(got[0].value_text, "2.0");
  EXPECT_EQ(got_ocr.stats().strings_read, 5u);
}

TEST(Differential, FilterMatchesOracle) {
  util::Rng rng(0xF117E5);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto samples = random_samples(rng);
    const double mad_k = rng.chance(0.5) ? 10.0 : rng.uniform(0.5, 20.0);
    FilterStats want_stats, got_stats;
    const auto want = oracle::filter_samples(samples, &want_stats, mad_k);
    const auto got = filter_samples(samples, &got_stats, mad_k);
    const std::string where = "trial " + std::to_string(trial);
    expect_same_samples(want, got, where);
    expect_same_stats(want_stats, got_stats, where);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace dpr::screenshot
