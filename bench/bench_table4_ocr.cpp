// Table 4 — Performance of the OCR engine.
//
// Paper result: AUTEL 919 488/500 frames correct (97.6%); LAUNCH X431
// 425/500 (85.0%). A frame counts as correct when every live-value glyph
// is recognized exactly. The resolution dependence comes from the glyph
// height of each tool's screen.
//
// Exits nonzero unless this build reads exactly AUTEL 490/500 and LAUNCH
// 433/500: the OCR stream is deterministic, so any other count means it
// moved. A deliberate OCR change updates these counts together with the
// golden fixtures.

#include <cstdio>

#include "bench_common.hpp"
#include "can/bus.hpp"
#include "cps/camera.hpp"
#include "cps/ocr.hpp"
#include "diagtool/tool.hpp"
#include "vehicle/vehicle.hpp"

namespace {

using namespace dpr;

struct OcrRun {
  std::size_t total = 0;
  std::size_t correct = 0;
};

OcrRun run_tool(diagtool::ToolKind kind, std::size_t frames) {
  util::SimClock clock;
  can::CanBus bus(clock);
  vehicle::Vehicle vehicle(vehicle::CarId::kA, bus, clock, 0x7AB1E4);
  diagtool::DiagnosticTool tool(diagtool::profile_for(kind), vehicle, bus,
                                clock);
  cps::Camera camera(tool, util::DeviceClock{},
                     tool.profile().value_font_px);
  cps::OcrEngine ocr(util::Rng(0x0C12 + static_cast<int>(kind)));

  // Navigate to a live data-stream view.
  auto click_text = [&](const std::string& keyword) {
    for (const auto& w : tool.screen().widgets) {
      if (w.kind == diagtool::Widget::Kind::kButton &&
          w.text.find(keyword) != std::string::npos) {
        tool.click(w.bounds.center_x(), w.bounds.center_y());
        return true;
      }
    }
    return false;
  };
  click_text("Local Diagnostics");
  click_text("Engine");
  click_text("Read Data Stream");
  while (click_text("[ ]")) {
  }
  click_text("Start");

  OcrRun run;
  while (run.total < frames) {
    tool.run_for(250 * util::kMillisecond);
    const auto shot = camera.capture(clock.now());
    bool frame_correct = true;
    bool has_values = false;
    for (const auto& region : shot.text_regions()) {
      if (region.row < 0 || region.bounds.x <= shot.width / 2) continue;
      has_values = true;
      if (ocr.read(region.truth, region.font_px) != region.truth) {
        frame_correct = false;
      }
    }
    if (!has_values) continue;
    ++run.total;
    if (frame_correct) ++run.correct;
  }
  return run;
}

}  // namespace

int main() {
  std::printf("Table 4: Performance of OCR engine\n");
  std::printf("(paper: AUTEL 919 488/500 = 97.6%%, LAUNCH X431 425/500 = "
              "85.0%%)\n\n");
  std::printf("%-16s %-12s %-14s %-10s\n", "Diagnostic Tool", "#Total Pics",
              "#Correct Pics", "Precision");
  dpr::bench::print_rule(56);
  struct Expected {
    dpr::diagtool::ToolKind kind;
    std::size_t correct;
  };
  bool ok = true;
  for (const auto& [kind, want_correct] :
       {Expected{dpr::diagtool::ToolKind::kAutel919, 490},
        Expected{dpr::diagtool::ToolKind::kLaunchX431, 433}}) {
    const auto profile = dpr::diagtool::profile_for(kind);
    const auto run = run_tool(kind, 500);
    std::printf("%-16s %-12zu %-14zu %s\n", profile.name.c_str(), run.total,
                run.correct, dpr::bench::percent(run.correct, run.total).c_str());
    if (run.total != 500 || run.correct != want_correct) {
      std::fprintf(stderr, "FAIL: %s read %zu/%zu frames, expected %zu/500\n",
                   profile.name.c_str(), run.correct, run.total, want_correct);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
