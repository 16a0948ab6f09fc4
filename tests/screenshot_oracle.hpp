#pragma once
// Test-only oracle: the screenshot-analysis stage as it was before it
// grouped samples by name and paired rows in flat tables. It lower-cases
// the name and every keyword per range check, groups through a
// std::map<std::string, ...> and pairs each frame's rows through two
// std::map<int, std::string>. The production stage is correct when, from
// the same video and OCR state, it yields the same samples in the same
// order, the same FilterStats and leaves the OCR stream where this does
// (screenshot_test's differential tests).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "cps/camera.hpp"
#include "cps/ocr.hpp"
#include "screenshot/extract.hpp"
#include "screenshot/filter.hpp"
#include "util/stats.hpp"

namespace dpr::screenshot::oracle {

inline std::vector<UiSample> extract_samples(const cps::VideoRecording& video,
                                             cps::OcrEngine& ocr) {
  std::vector<UiSample> samples;
  for (const auto& frame : video.frames) {
    std::map<int, std::string> labels;
    std::map<int, std::string> values;
    for (const auto& region : frame.text_regions()) {
      if (region.row < 0) continue;
      const std::string text = ocr.read(region.truth, region.font_px);
      if (region.bounds.x > frame.width / 2) {
        values[region.row] = text;
      } else if (!region.clickable) {
        labels[region.row] = text;
      }
    }
    for (const auto& [row, value_text] : values) {
      const auto label_it = labels.find(row);
      if (label_it == labels.end()) continue;
      UiSample sample;
      sample.timestamp = frame.timestamp;
      sample.row = row;
      sample.name = strip_unit(label_it->second);
      sample.value_text = value_text;
      sample.value = parse_value(value_text);
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

inline bool name_has(const std::string& name, const char* keyword) {
  std::string lower_name;
  lower_name.reserve(name.size());
  for (char c : name) {
    lower_name.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  std::string lower_key(keyword);
  for (char& c : lower_key) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower_name.find(lower_key) != std::string::npos;
}

inline RangeLimits range_for(const std::string& name) {
  if (name_has(name, "engine speed") || name_has(name, "rpm")) {
    return {0.0, 20000.0};
  }
  if (name_has(name, "wheel speed") || name_has(name, "vehicle speed")) {
    return {0.0, 400.0};
  }
  if (name_has(name, "temperature")) return {-80.0, 1200.0};
  if (name_has(name, "voltage")) return {0.0, 100.0};
  if (name_has(name, "pressure")) return {-10.0, 5000.0};
  if (name_has(name, "angle")) return {-900.0, 900.0};
  if (name_has(name, "position") || name_has(name, "level") ||
      name_has(name, "throttle")) {
    return {-5.0, 150.0};
  }
  if (name_has(name, "torque")) return {-2000.0, 2000.0};
  return {-1e7, 1e7};
}

inline std::vector<bool> outlier_mask(const std::vector<double>& values,
                                      double k) {
  std::vector<bool> keep(values.size(), true);
  if (values.size() < 4) return keep;
  const double med = util::median(values);
  double spread = util::mad(values);
  if (spread < 1e-9) spread = std::max(1e-6, std::abs(med) * 0.05);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::abs(values[i] - med) > k * spread) keep[i] = false;
  }
  return keep;
}

inline std::vector<UiSample> filter_samples(std::vector<UiSample> samples,
                                            FilterStats* stats = nullptr,
                                            double mad_k = 10.0) {
  FilterStats local;
  std::vector<UiSample> staged;
  staged.reserve(samples.size());
  for (auto& sample : samples) {
    if (!sample.value) {
      staged.push_back(std::move(sample));
      continue;
    }
    ++local.numeric_samples;
    const RangeLimits limits = range_for(sample.name);
    if (*sample.value < limits.lo || *sample.value > limits.hi) {
      ++local.range_rejected;
      continue;
    }
    staged.push_back(std::move(sample));
  }

  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (staged[i].value) by_name[staged[i].name].push_back(i);
  }
  std::vector<bool> keep(staged.size(), true);
  for (const auto& [name, indices] : by_name) {
    std::vector<double> values;
    values.reserve(indices.size());
    for (std::size_t i : indices) values.push_back(*staged[i].value);
    const auto mask = outlier_mask(values, mad_k);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      if (!mask[j]) {
        keep[indices[j]] = false;
        ++local.outlier_rejected;
      }
    }
  }

  std::vector<UiSample> out;
  out.reserve(staged.size());
  for (std::size_t i = 0; i < staged.size(); ++i) {
    if (keep[i]) out.push_back(std::move(staged[i]));
  }
  if (stats) *stats = local;
  return out;
}

}  // namespace dpr::screenshot::oracle
