#include "screenshot/extract.hpp"

#include <algorithm>
#include <cstdlib>

namespace dpr::screenshot {

std::optional<double> parse_value(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return v;
}

std::string strip_unit(const std::string& label) {
  const auto pos = label.rfind(" (");
  if (pos == std::string::npos) return label;
  if (label.back() != ')') return label;
  return label.substr(0, pos);
}

std::vector<UiSample> extract_samples(const cps::VideoRecording& video,
                                      cps::OcrEngine& ocr) {
  // Row -> (label text, value text) association by layout geometry: one
  // slot per layout row, reused across frames. A later region of the same
  // row and side overwrites the earlier one.
  struct RowSlot {
    std::string label;
    std::string value;
    bool has_label = false;
    bool has_value = false;
  };
  std::vector<RowSlot> slots;
  std::vector<UiSample> samples;
  for (const auto& frame : video.frames) {
    std::size_t n_rows = 0;
    for (const auto& region : frame.text_regions()) {
      if (region.row < 0) continue;
      const auto row = static_cast<std::size_t>(region.row);
      n_rows = std::max(n_rows, row + 1);
      if (n_rows > slots.size()) slots.resize(n_rows);
      std::string text = ocr.read(region.truth, region.font_px);
      // Value regions sit in the right half of the screen; labels left.
      RowSlot& slot = slots[row];
      if (region.bounds.x > frame.width / 2) {
        slot.value = std::move(text);
        slot.has_value = true;
      } else if (!region.clickable) {
        slot.label = std::move(text);
        slot.has_label = true;
      }
    }
    for (std::size_t row = 0; row < n_rows; ++row) {
      RowSlot& slot = slots[row];
      if (slot.has_value && slot.has_label) {
        UiSample sample;
        sample.timestamp = frame.timestamp;
        sample.row = static_cast<int>(row);
        sample.name = strip_unit(slot.label);
        sample.value = parse_value(slot.value);
        sample.value_text = std::move(slot.value);
        samples.push_back(std::move(sample));
      }
      slot.has_label = false;
      slot.has_value = false;
    }
  }
  return samples;
}

}  // namespace dpr::screenshot
