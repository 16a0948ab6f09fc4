#pragma once
// Camera models of the CPS rig (§3.1): camera *a* feeds the UI analyzer
// that steers the robotic clicker; camera *b* records the UI video whose
// text is later extracted for reverse engineering (§3.3).
//
// A Screenshot is the camera-side view of a tool screen: text regions
// with pixel geometry (the output a scene-text detector like EAST would
// produce) plus text-less widget boxes (Canny-edge candidates). The
// regions carry the ground-truth glyphs, which only the OCR engine is
// allowed to look at — everything downstream consumes OCR output.
//
// The regions live in a ScreenImage that frames share: a camera converts
// the tool's screen only when the tool reports a new screen version, and
// hands every later frame of that version the same image. An image is
// immutable once built, so a frame keeps showing what it recorded.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "diagtool/tool.hpp"
#include "diagtool/ui.hpp"
#include "util/clock.hpp"

namespace dpr::cps {

struct TextRegion {
  std::string truth;   // actual glyphs; consumed by the OCR engine only
  diagtool::Rect bounds;
  int font_px = 24;
  int row = -1;        // layout row (derived from y geometry)
  bool clickable = false;

  bool operator==(const TextRegion&) const = default;
};

struct IconRegion {
  diagtool::Rect bounds;
  std::string icon_identity;  // matched against reference pictures

  bool operator==(const IconRegion&) const = default;
};

/// The regions of one screen version, in widget order.
struct ScreenImage {
  std::vector<TextRegion> text_regions;
  std::vector<IconRegion> icon_regions;
};

struct Screenshot {
  util::SimTime timestamp = 0;  // camera device-clock time
  int width = 0, height = 0;
  /// Shared with every other frame of the same screen version; null
  /// reads as a screen with no regions.
  std::shared_ptr<const ScreenImage> image;

  std::span<const TextRegion> text_regions() const {
    return image ? std::span<const TextRegion>(image->text_regions)
                 : std::span<const TextRegion>();
  }
  std::span<const IconRegion> icon_regions() const {
    return image ? std::span<const IconRegion>(image->icon_regions)
                 : std::span<const IconRegion>();
  }
};

class Camera {
 public:
  /// `device_clock` models the recording device's clock skew (§9.4).
  Camera(const diagtool::DiagnosticTool& tool, util::DeviceClock device_clock,
         int value_font_px);

  /// Take one screenshot of the tool's current screen. Converts the
  /// screen into a new image only when the tool's screen version moved
  /// since this camera's last capture; otherwise the frame shares the
  /// previous image.
  Screenshot capture(util::SimTime global_now);

  const util::DeviceClock& device_clock() const { return device_clock_; }

 private:
  const diagtool::DiagnosticTool& tool_;
  util::DeviceClock device_clock_;
  int value_font_px_;
  std::uint64_t image_version_ = 0;
  std::shared_ptr<const ScreenImage> image_;
};

/// A recorded UI video: timestamped frames, as produced by camera b under
/// the "Timestamp Camera" app.
struct VideoRecording {
  std::vector<Screenshot> frames;
};

}  // namespace dpr::cps
