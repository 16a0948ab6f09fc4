#include "cps/camera.hpp"

namespace dpr::cps {

namespace {

ScreenImage convert(const diagtool::Screen& screen, int value_font_px) {
  ScreenImage image;
  for (const auto& widget : screen.widgets) {
    using K = diagtool::Widget::Kind;
    switch (widget.kind) {
      case K::kButton:
      case K::kLabel:
      case K::kValueText: {
        TextRegion region;
        region.truth = widget.text;
        region.bounds = widget.bounds;
        region.font_px = widget.kind == K::kValueText ? value_font_px
                                                      : widget.bounds.h / 2;
        region.row = widget.row;
        region.clickable = widget.kind == K::kButton;
        image.text_regions.push_back(std::move(region));
        break;
      }
      case K::kIconButton: {
        image.icon_regions.push_back(IconRegion{widget.bounds, widget.icon});
        break;
      }
    }
  }
  return image;
}

}  // namespace

Camera::Camera(const diagtool::DiagnosticTool& tool,
               util::DeviceClock device_clock, int value_font_px)
    : tool_(tool), device_clock_(device_clock),
      value_font_px_(value_font_px) {}

Screenshot Camera::capture(util::SimTime global_now) {
  const auto& screen = tool_.screen();
  if (!image_ || image_version_ != tool_.screen_version()) {
    image_ = std::make_shared<const ScreenImage>(
        convert(screen, value_font_px_));
    image_version_ = tool_.screen_version();
  }
  Screenshot shot;
  shot.timestamp = device_clock_.local_time(global_now);
  shot.width = screen.width;
  shot.height = screen.height;
  shot.image = image_;
  return shot;
}

}  // namespace dpr::cps
