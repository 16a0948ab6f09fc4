#include "screenshot/filter.hpp"

#include <cctype>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "util/stats.hpp"

namespace dpr::screenshot {

namespace {

// The type keywords in precedence order, lower case; a name takes the
// range of the first keyword it contains (case-insensitively).
struct Keyword {
  std::string_view word;
  RangeLimits limits;
};

constexpr RangeLimits kRpm{0.0, 20000.0};
constexpr RangeLimits kSpeed{0.0, 400.0};
constexpr RangeLimits kTravel{-5.0, 150.0};

constexpr Keyword kKeywords[] = {
    {"engine speed", kRpm},
    {"rpm", kRpm},
    {"wheel speed", kSpeed},
    {"vehicle speed", kSpeed},
    {"temperature", {-80.0, 1200.0}},
    {"voltage", {0.0, 100.0}},
    {"pressure", {-10.0, 5000.0}},
    {"angle", {-900.0, 900.0}},
    {"position", kTravel},
    {"level", kTravel},
    {"throttle", kTravel},
    {"torque", {-2000.0, 2000.0}},
};

}  // namespace

RangeLimits range_for(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const Keyword& keyword : kKeywords) {
    if (lower.find(keyword.word) != std::string::npos) return keyword.limits;
  }
  return {-1e7, 1e7};  // generic guard against catastrophic misreads
}

std::vector<bool> outlier_mask(const std::vector<double>& values, double k) {
  std::vector<bool> keep(values.size(), true);
  if (values.size() < 4) return keep;
  const double med = util::median(values);
  double spread = util::mad(values);
  // Constant (or near-constant) series: allow small relative wiggle.
  if (spread < 1e-9) spread = std::max(1e-6, std::abs(med) * 0.05);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::abs(values[i] - med) > k * spread) keep[i] = false;
  }
  return keep;
}

std::vector<UiSample> filter_samples(std::vector<UiSample> samples,
                                     FilterStats* stats, double mad_k) {
  FilterStats local;

  // One group per distinct signal name, keyed by views of the samples'
  // own names (nothing below moves a sample until the final compaction).
  struct Group {
    RangeLimits limits;
    std::vector<std::size_t> in_range;  // sample indices, ascending
  };
  std::unordered_map<std::string_view, std::size_t> group_of;
  std::vector<Group> groups;
  std::vector<char> keep(samples.size(), 1);

  // Stage 1: range check on numeric samples, by the group's limits.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const UiSample& sample = samples[i];
    if (!sample.value) continue;
    ++local.numeric_samples;
    const auto [it, fresh] = group_of.try_emplace(sample.name, groups.size());
    if (fresh) groups.push_back({range_for(sample.name), {}});
    Group& group = groups[it->second];
    if (*sample.value < group.limits.lo || *sample.value > group.limits.hi) {
      ++local.range_rejected;
      keep[i] = 0;
      continue;
    }
    group.in_range.push_back(i);
  }

  // Stage 2: per-signal outlier removal over one reused values buffer.
  std::vector<double> values;
  for (const Group& group : groups) {
    values.clear();
    for (std::size_t i : group.in_range) values.push_back(*samples[i].value);
    const auto mask = outlier_mask(values, mad_k);
    for (std::size_t j = 0; j < group.in_range.size(); ++j) {
      if (!mask[j]) {
        keep[group.in_range[j]] = 0;
        ++local.outlier_rejected;
      }
    }
  }

  // Compact in place, keeping sample order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!keep[i]) continue;
    if (kept != i) samples[kept] = std::move(samples[i]);
    ++kept;
  }
  samples.erase(samples.begin() + static_cast<std::ptrdiff_t>(kept),
                samples.end());
  if (stats) *stats = local;
  return samples;
}

}  // namespace dpr::screenshot
