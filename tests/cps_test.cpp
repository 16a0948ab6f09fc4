#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "cps/analyzer.hpp"
#include "cps/camera.hpp"
#include "cps/clicker.hpp"
#include "cps/ocr.hpp"
#include "cps/planner.hpp"
#include "cps/script.hpp"
#include "diagtool/tool.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::cps {
namespace {

TEST(Ocr, PerfectWhenNoiseDisabled) {
  OcrEngine ocr(util::Rng(1), /*noisy=*/false);
  EXPECT_EQ(ocr.read("25.00", 10), "25.00");
  EXPECT_DOUBLE_EQ(ocr.stats().precision(), 1.0);
}

TEST(Ocr, ErrorRateFallsWithFontSize) {
  EXPECT_GT(OcrEngine::char_error_rate(18), OcrEngine::char_error_rate(34));
  EXPECT_GT(OcrEngine::char_error_rate(10), OcrEngine::char_error_rate(18));
}

TEST(Ocr, CalibrationMatchesTable4) {
  // ~70 glyphs per frame: AUTEL (34 px) ~97.6 %, LAUNCH (18 px) ~85 %.
  const double p_autel = OcrEngine::char_error_rate(34);
  const double p_launch = OcrEngine::char_error_rate(18);
  EXPECT_NEAR(std::pow(1.0 - p_autel, 70), 0.976, 0.01);
  EXPECT_NEAR(std::pow(1.0 - p_launch, 70), 0.85, 0.03);
}

TEST(Ocr, EventuallyDropsDecimalPoints) {
  OcrEngine ocr(util::Rng(7));
  bool dropped = false;
  for (int i = 0; i < 30000 && !dropped; ++i) {
    const std::string read = ocr.read("25.00", 12);
    if (read == "2500") dropped = true;
  }
  EXPECT_TRUE(dropped);
  EXPECT_GT(ocr.stats().decimal_drops, 0u);
}

TEST(Ocr, StatsTrackPrecision) {
  OcrEngine ocr(util::Rng(9));
  for (int i = 0; i < 2000; ++i) ocr.read("Engine Speed", 34);
  EXPECT_GT(ocr.stats().precision(), 0.9);
  EXPECT_LT(ocr.stats().precision(), 1.0);
}

TEST(Clicker, TravelTimeIsManhattanOverSpeed) {
  util::SimClock clock;
  RoboticClicker clicker(clock, /*speed=*/1000.0, /*dwell=*/0);
  EXPECT_EQ(clicker.travel_time(300, 400),
            static_cast<util::SimTime>(0.7 * util::kSecond));
}

TEST(Clicker, MoveAndClickAdvancesClockAndLogs) {
  util::SimClock clock;
  RoboticClicker clicker(clock, 1000.0, 100 * util::kMillisecond);
  const auto event = clicker.move_and_click(100, 100);
  EXPECT_EQ(clock.now(), 300 * util::kMillisecond);  // 200 travel + 100 dwell
  EXPECT_EQ(event.x, 100);
  EXPECT_EQ(clicker.log().size(), 1u);
  EXPECT_EQ(clicker.total_travel(), 200 * util::kMillisecond);
}

TEST(Planner, NearestNeighborVisitsAll) {
  const std::vector<Point> points{{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  const auto order = plan_nearest_neighbor({0, 0}, points);
  ASSERT_EQ(order.size(), 4u);
  std::set<std::size_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Planner, NearestNeighborBeatsRandomOnAverage) {
  // The §3.1 claim: NN saves ~7 % of movement versus random order on a
  // 14-ESV screen.
  util::Rng rng(11);
  double nn_total = 0, random_total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Point> points;
    for (int i = 0; i < 14; ++i) {
      points.push_back(Point{static_cast<int>(rng.uniform_int(0, 1200)),
                             static_cast<int>(rng.uniform_int(0, 700))});
    }
    const Point start{0, 0};
    nn_total += static_cast<double>(
        tour_length(start, points, plan_nearest_neighbor(start, points)));
    auto random_order = plan_random(points, rng);
    random_total +=
        static_cast<double>(tour_length(start, points, random_order));
  }
  EXPECT_LT(nn_total, random_total * 0.93);
}

TEST(Planner, BruteForceOptimalOnSmallInstances) {
  util::Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> points;
    for (int i = 0; i < 7; ++i) {
      points.push_back(Point{static_cast<int>(rng.uniform_int(0, 500)),
                             static_cast<int>(rng.uniform_int(0, 500))});
    }
    const Point start{0, 0};
    const long optimal =
        tour_length(start, points, plan_brute_force(start, points));
    const long nn =
        tour_length(start, points, plan_nearest_neighbor(start, points));
    EXPECT_LE(optimal, nn);
  }
}

TEST(Planner, TwoOptNeverWorseThanInput) {
  util::Rng rng(17);
  std::vector<Point> points;
  for (int i = 0; i < 12; ++i) {
    points.push_back(Point{static_cast<int>(rng.uniform_int(0, 1000)),
                           static_cast<int>(rng.uniform_int(0, 1000))});
  }
  const Point start{0, 0};
  auto initial = plan_random(points, rng);
  const long before = tour_length(start, points, initial);
  const long after =
      tour_length(start, points, refine_two_opt(start, points, initial));
  EXPECT_LE(after, before);
}

TEST(Planner, BruteForceRejectsLargeInstances) {
  std::vector<Point> points(11);
  EXPECT_THROW(plan_brute_force({0, 0}, points), std::invalid_argument);
}

class RigFixture : public ::testing::Test {
 protected:
  RigFixture()
      : bus_(clock_),
        vehicle_(vehicle::CarId::kA, bus_, clock_),
        tool_(diagtool::profile_for(diagtool::ToolKind::kAutel919),
              vehicle_, bus_, clock_),
        camera_(tool_, util::DeviceClock(1000, 0.0),
                tool_.profile().value_font_px),
        ocr_(util::Rng(3), /*noisy=*/false),
        analyzer_(ocr_, util::Rng(4)) {}

  util::SimClock clock_;
  can::CanBus bus_;
  vehicle::Vehicle vehicle_;
  diagtool::DiagnosticTool tool_;
  Camera camera_;
  OcrEngine ocr_;
  UiAnalyzer analyzer_;
};

TEST_F(RigFixture, CameraCapturesWidgetsWithDeviceTimestamp) {
  clock_.advance(5000);
  const auto shot = camera_.capture(clock_.now());
  EXPECT_EQ(shot.timestamp, 6000);
  EXPECT_GT(shot.text_regions().size(), 3u);
}

// --- Shared frames: one image per screen version -------------------------

/// Drive the rig into the OBD live view, whose values repaint every poll.
void enter_obd_live(diagtool::DiagnosticTool& tool) {
  for (const auto& widget : tool.screen().widgets) {
    if (widget.text == "OBD-II Scan") {
      tool.click(widget.bounds.center_x(), widget.bounds.center_y());
      return;
    }
  }
  FAIL() << "no OBD-II Scan button";
}

/// The value texts a frame shows, in region order.
std::vector<std::string> value_texts(const Screenshot& shot) {
  std::vector<std::string> texts;
  for (const auto& region : shot.text_regions()) {
    if (region.row >= 0 && region.bounds.x > shot.width / 2) {
      texts.push_back(region.truth);
    }
  }
  return texts;
}

/// Step the tool until a repaint moves its screen; false if none lands.
bool run_until_repaint(diagtool::DiagnosticTool& tool) {
  const auto version = tool.screen_version();
  for (int step = 0; step < 400; ++step) {
    tool.run_for(25 * util::kMillisecond);
    if (tool.screen_version() != version) return true;
  }
  return false;
}

TEST_F(RigFixture, UnchangedScreenSharesTheImage) {
  const auto menu = camera_.capture(clock_.now());
  clock_.advance(40 * util::kMillisecond);
  const auto again = camera_.capture(clock_.now());
  EXPECT_EQ(again.image, menu.image);
  EXPECT_NE(again.timestamp, menu.timestamp);

  enter_obd_live(tool_);
  const auto live = camera_.capture(clock_.now());
  EXPECT_NE(live.image, menu.image);  // a click is a new image
  EXPECT_EQ(camera_.capture(clock_.now()).image, live.image);
}

TEST_F(RigFixture, RepaintYieldsANewImageAndOldFramesKeepTheirValues) {
  enter_obd_live(tool_);
  ASSERT_TRUE(run_until_repaint(tool_));
  const auto first = camera_.capture(clock_.now());
  const auto first_values = value_texts(first);
  ASSERT_FALSE(first_values.empty());

  std::size_t new_images = 0;
  for (int repaint = 0; repaint < 20; ++repaint) {
    const auto before = camera_.capture(clock_.now());
    ASSERT_TRUE(run_until_repaint(tool_));
    const auto after = camera_.capture(clock_.now());
    EXPECT_NE(after.image, before.image);
    EXPECT_NE(value_texts(after), value_texts(before));
    ++new_images;
    // A camera with no memo converts the screen from scratch: the shared
    // image must be exactly that conversion.
    Camera fresh(tool_, util::DeviceClock(1000, 0.0),
                 tool_.profile().value_font_px);
    const auto converted = fresh.capture(clock_.now());
    EXPECT_TRUE(std::ranges::equal(after.text_regions(),
                                   converted.text_regions()));
    EXPECT_TRUE(std::ranges::equal(after.icon_regions(),
                                   converted.icon_regions()));
  }
  EXPECT_EQ(new_images, 20u);
  // Twenty repaints later the first frame still shows what it recorded.
  EXPECT_EQ(value_texts(first), first_values);
  EXPECT_NE(value_texts(camera_.capture(clock_.now())), first_values);
}

TEST_F(RigFixture, AnalyzerFindsButtonsByKeyword) {
  const auto shot = camera_.capture(clock_.now());
  EXPECT_TRUE(analyzer_.find_button(shot, "Diagnos").has_value());
  EXPECT_FALSE(analyzer_.find_button(shot, "Nonexistent").has_value());
}

TEST_F(RigFixture, AnalyzerRespectsExcludeList) {
  tool_.click(tool_.screen().widgets[1].bounds.center_x(),
              tool_.screen().widgets[1].bounds.center_y());  // diagnostics
  const auto list_shot = camera_.capture(clock_.now());
  // Enter first ECU to reach the menu with "Read/Clear Trouble Codes".
  const auto point = analyzer_.find_button(list_shot, "Engine");
  ASSERT_TRUE(point.has_value());
  tool_.click(point->x, point->y);
  const auto menu_shot = camera_.capture(clock_.now());
  const auto excluded = analyzer_.find_button(menu_shot, "Trouble",
                                              {"Clear"});
  ASSERT_TRUE(excluded.has_value());  // "Read Trouble Codes" passes
  const auto all_excluded =
      analyzer_.find_button(menu_shot, "Clear Trouble", {"Clear"});
  EXPECT_FALSE(all_excluded.has_value());
}

TEST_F(RigFixture, IconSimilarityMatchingFindsBackArrow) {
  tool_.click(tool_.screen().widgets[1].bounds.center_x(),
              tool_.screen().widgets[1].bounds.center_y());
  const auto shot = camera_.capture(clock_.now());
  EXPECT_TRUE(analyzer_.find_icon(shot, "back_arrow").has_value());
  EXPECT_FALSE(analyzer_.find_icon(shot, "gear_icon").has_value());
}

TEST_F(RigFixture, IconSimilarityScores) {
  EXPECT_GT(analyzer_.icon_similarity("back_arrow", "back_arrow"), 0.85);
  EXPECT_LT(analyzer_.icon_similarity("back_arrow", "gear_icon"), 0.8);
}

TEST_F(RigFixture, ScriptExecutorClicksAndWaits) {
  RoboticClicker clicker(clock_);
  ScriptExecutor executor(clicker, tool_);
  // Click "Local Diagnostics" (widget index 1 on the main menu).
  const auto& widget = tool_.screen().widgets[1];
  const auto script = make_click_script(
      {Point{widget.bounds.center_x(), widget.bounds.center_y()}},
      500 * util::kMillisecond);
  executor.run(script);
  EXPECT_EQ(tool_.mode(), diagtool::DiagnosticTool::Mode::kEcuList);
  ASSERT_EQ(executor.log().size(), 2u);  // click + wait
  EXPECT_GT(executor.log()[0].timestamp, 0);
}

TEST(Script, GeneratorInsertsWaitsAndFinalCapture) {
  const auto script =
      make_click_script({{1, 1}, {2, 2}}, 100, 30 * util::kSecond, "sel");
  ASSERT_EQ(script.size(), 5u);  // 2 x (click+wait) + final wait
  EXPECT_EQ(script[0].kind, ScriptStatement::Kind::kClick);
  EXPECT_EQ(script[4].duration, 30 * util::kSecond);
}

}  // namespace
}  // namespace dpr::cps
