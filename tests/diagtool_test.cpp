#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "can/bus.hpp"
#include "can/sniffer.hpp"
#include "diagtool/tool.hpp"
#include "vehicle/generator.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::diagtool {
namespace {

class ToolFixture : public ::testing::Test {
 protected:
  explicit ToolFixture(vehicle::CarId car = vehicle::CarId::kA)
      : bus_(clock_),
        vehicle_(car, bus_, clock_),
        tool_(profile_by_name(vehicle_.spec().tool), vehicle_, bus_,
              clock_),
        sniffer_(bus_) {}

  /// Click the first clickable widget whose text contains `keyword`.
  bool click(const std::string& keyword) {
    for (const auto& widget : tool_.screen().widgets) {
      if ((widget.kind == Widget::Kind::kButton) &&
          widget.text.find(keyword) != std::string::npos) {
        return tool_.click(widget.bounds.center_x(),
                           widget.bounds.center_y());
      }
    }
    return false;
  }

  util::SimClock clock_;
  can::CanBus bus_;
  vehicle::Vehicle vehicle_;
  DiagnosticTool tool_;
  can::Sniffer sniffer_;
};

TEST_F(ToolFixture, StartsAtMainMenu) {
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kMainMenu);
  EXPECT_NE(tool_.screen().title.find("Skoda"), std::string::npos);
}

TEST_F(ToolFixture, NavigatesToEcuList) {
  ASSERT_TRUE(click("Local Diagnostics"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kEcuList);
  // One button per ECU.
  std::size_t buttons = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kButton) ++buttons;
  }
  EXPECT_EQ(buttons, vehicle_.spec().ecus.size());
}

TEST_F(ToolFixture, EcuMenuHasDataStreamAndActiveTest) {
  click("Local Diagnostics");
  click("Engine");
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kEcuMenu);
  EXPECT_TRUE(click("Read Data Stream"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kDataSelect);
}

TEST_F(ToolFixture, RowSelectionToggles) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  EXPECT_EQ(tool_.selected_rows(), 0u);
  click("[ ]");
  EXPECT_EQ(tool_.selected_rows(), 1u);
  click("[x]");
  EXPECT_EQ(tool_.selected_rows(), 0u);
}

TEST_F(ToolFixture, LiveViewPollsAndDisplaysValues) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  // Select every row on the page.
  while (click("[ ]")) {
  }
  ASSERT_GT(tool_.selected_rows(), 0u);
  click("Start");
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kDataLive);
  tool_.run_for(3 * util::kSecond);
  // Values should be painted (not "--") and traffic generated.
  std::size_t painted = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kValueText && w.text != "--") ++painted;
  }
  EXPECT_GT(painted, 0u);
  EXPECT_GT(sniffer_.size(), 10u);
}

TEST_F(ToolFixture, DisplayedValueMatchesGroundTruthFormula) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  while (click("[ ]")) {
  }
  click("Start");
  tool_.run_for(3 * util::kSecond);
  // Compare a *constant* signal against the vehicle's ground truth (live
  // signals move during the display lag; a constant one must match up to
  // formatting rounding).
  const auto& ecu_spec = vehicle_.spec().ecus[0];
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind != Widget::Kind::kValueText || w.row < 0) continue;
    if (w.text == "--") continue;
    const auto& sig = ecu_spec.uds_signals[static_cast<std::size_t>(w.row)];
    if (sig.pattern != vehicle::RawSignal::Pattern::kConstant) continue;
    const auto truth = vehicle_.physical_value(sig.did);
    ASSERT_TRUE(truth.has_value());
    const double displayed = std::stod(w.text);
    EXPECT_NEAR(displayed, *truth, std::max(1.0, std::abs(*truth)) * 0.01);
    return;
  }
  GTEST_SKIP() << "no constant signal painted on page 1";
}

TEST_F(ToolFixture, ActiveTestTriggersActuator) {
  click("Local Diagnostics");
  click("Main Body");
  ASSERT_TRUE(click("Active Test"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kActiveTest);
  // Click the first actuator button.
  const auto& acts = vehicle_.spec().ecus[1].actuators;
  ASSERT_FALSE(acts.empty());
  ASSERT_TRUE(click(acts[0].name));
  auto* ecu = vehicle_.find_ecu_with_actuator(acts[0].id);
  ASSERT_NE(ecu, nullptr);
  EXPECT_EQ(ecu->actuator(acts[0].id)->activations(), 1u);
  // Status label reports success.
  bool found_status = false;
  for (const auto& w : tool_.screen().widgets) {
    if (w.text.find("Test OK") != std::string::npos) found_status = true;
  }
  EXPECT_TRUE(found_status);
}

TEST_F(ToolFixture, ObdLiveViewReadsStandardPids) {
  ASSERT_TRUE(click("OBD-II Scan"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kObdLive);
  tool_.run_for(3 * util::kSecond);
  std::size_t painted = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kValueText && w.text != "--") ++painted;
  }
  EXPECT_GT(painted, 5u);
}

TEST_F(ToolFixture, BackIconNavigatesUp) {
  click("Local Diagnostics");
  ASSERT_EQ(tool_.mode(), DiagnosticTool::Mode::kEcuList);
  // The back icon is the icon button at the top-left corner. Take its
  // position first and click after the loop: click() rebuilds the
  // screen, which invalidates the widget being iterated.
  std::optional<Rect> back;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kIconButton) {
      back = w.bounds;
      break;
    }
  }
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(tool_.click(back->center_x(), back->center_y()));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kMainMenu);
}

TEST(Profiles, ResolutionOrdering) {
  const auto autel = profile_for(ToolKind::kAutel919);
  const auto launch = profile_for(ToolKind::kLaunchX431);
  EXPECT_GT(autel.screen_width, launch.screen_width);
  EXPECT_GT(autel.value_font_px, launch.value_font_px);
  EXPECT_EQ(profile_by_name("AUTEL 919").kind, ToolKind::kAutel919);
  EXPECT_EQ(profile_by_name("VCDS").kind, ToolKind::kVcds);
}

class KwpToolFixture : public ToolFixture {
 protected:
  KwpToolFixture() : ToolFixture(vehicle::CarId::kB) {}
};

TEST_F(KwpToolFixture, KwpLiveViewWorksOverVwTp) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  while (click("[ ]")) {
  }
  click("Start");
  tool_.run_for(3 * util::kSecond);
  std::size_t painted = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kValueText && w.text != "--") ++painted;
  }
  EXPECT_GT(painted, 0u);
}

}  // namespace
}  // namespace dpr::diagtool

namespace dpr::diagtool {
namespace {

class DtcFixture : public ToolFixture {};

TEST_F(DtcFixture, ReadTroubleCodesShowsDtcScreen) {
  click("Local Diagnostics");
  click("Engine");
  ASSERT_TRUE(click("Read Trouble Codes"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kDtcList);
  // The screen lists either codes (P/C/B/U prefix) or the empty notice.
  bool found = false;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind != Widget::Kind::kLabel) continue;
    if (w.text.find("status") != std::string::npos ||
        w.text.find("No trouble codes") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DtcFixture, ClearTroubleCodesEmptiesTheStore) {
  click("Local Diagnostics");
  click("Engine");
  ASSERT_TRUE(click("Clear Trouble Codes"));
  // Reading afterwards shows the empty notice.
  click("Read Trouble Codes");
  bool empty_notice = false;
  for (const auto& w : tool_.screen().widgets) {
    if (w.text.find("No trouble codes") != std::string::npos) {
      empty_notice = true;
    }
  }
  EXPECT_TRUE(empty_notice);
}

// --- Value-only repaints against the full-rebuild reference ----------------

/// Two identical rigs on one car, driven through the same clicks: `fast`
/// patches repainted value texts in place, `legacy` rebuilds its whole
/// screen on every step. After every step both must show the same screen,
/// and `fast` must bump its screen version exactly when its screen moved.
class RepaintEquivalence : public ::testing::Test {
 protected:
  struct Rig {
    explicit Rig(const vehicle::CarSpec& spec)
        : bus(clock),
          vehicle(spec, bus, clock),
          tool(profile_by_name(vehicle.spec().tool), vehicle, bus, clock) {}
    util::SimClock clock;
    can::CanBus bus;
    vehicle::Vehicle vehicle;
    DiagnosticTool tool;
  };

  explicit RepaintEquivalence(const vehicle::CarSpec& spec)
      : fast_(spec), legacy_(spec) {
    legacy_.tool.set_legacy_ui(true);
  }
  RepaintEquivalence() : RepaintEquivalence(multi_page_car()) {}

  /// One UDS ECU with 24 data-stream rows: two pages of kRowsPerPage.
  static vehicle::CarSpec multi_page_car() {
    vehicle::GeneratorConfig config;
    config.ecus_min = config.ecus_max = 1;
    config.formula_signals_min = config.formula_signals_max = 20;
    config.enum_signals_min = config.enum_signals_max = 4;
    config.kwp_fraction = 0.0;
    return vehicle::generate_car(config, 5);
  }

  /// Click the first button whose text contains `keyword`, on both rigs at
  /// the same point (their screens are equal, so it is the same button).
  bool click(const std::string& keyword) {
    for (const auto& widget : fast_.tool.screen().widgets) {
      if (widget.kind == Widget::Kind::kButton &&
          widget.text.find(keyword) != std::string::npos) {
        const int x = widget.bounds.center_x();
        const int y = widget.bounds.center_y();
        const bool hit = fast_.tool.click(x, y);
        EXPECT_EQ(legacy_.tool.click(x, y), hit);
        return hit;
      }
    }
    return false;
  }

  /// Step both rigs 25 ms at a time for `duration`, comparing screens after
  /// each step. Returns how many steps changed the displayed screen.
  std::size_t run_and_compare(util::SimTime duration) {
    std::size_t changed_steps = 0;
    for (util::SimTime t = 0; t < duration; t += 25 * util::kMillisecond) {
      const auto before = fast_.tool.screen().widgets;
      const auto version = fast_.tool.screen_version();
      fast_.tool.run_for(25 * util::kMillisecond);
      legacy_.tool.run_for(25 * util::kMillisecond);
      const auto& want = legacy_.tool.screen();
      const auto& got = fast_.tool.screen();
      EXPECT_EQ(got.title, want.title);
      EXPECT_EQ(got.width, want.width);
      EXPECT_EQ(got.height, want.height);
      EXPECT_EQ(got.widgets.size(), want.widgets.size());
      for (std::size_t i = 0;
           i < std::min(got.widgets.size(), want.widgets.size()); ++i) {
        const auto& g = got.widgets[i];
        const auto& w = want.widgets[i];
        EXPECT_EQ(g.kind, w.kind) << "widget " << i << " at step " << t;
        EXPECT_EQ(g.text, w.text) << "widget " << i << " at step " << t;
        EXPECT_EQ(g.bounds, w.bounds) << "widget " << i << " at step " << t;
        EXPECT_EQ(g.action, w.action) << "widget " << i << " at step " << t;
        EXPECT_EQ(g.icon, w.icon) << "widget " << i << " at step " << t;
        EXPECT_EQ(g.row, w.row) << "widget " << i << " at step " << t;
      }
      const bool moved = got.widgets != before;
      EXPECT_EQ(fast_.tool.screen_version() != version, moved)
          << "at step " << t;
      if (moved) ++changed_steps;
    }
    return changed_steps;
  }

  /// Rows on the current data-stream page.
  std::size_t rows_on_page() const {
    std::size_t rows = 0;
    for (const auto& widget : fast_.tool.screen().widgets) {
      if (widget.row >= 0 && widget.kind != Widget::Kind::kValueText) ++rows;
    }
    return rows;
  }

  Rig fast_;
  Rig legacy_;
};

TEST_F(RepaintEquivalence, DataStreamLiveViewAcrossAPageFlip) {
  ASSERT_TRUE(click("Local Diagnostics"));
  ASSERT_TRUE(click(fast_.vehicle.spec().ecus[0].name));
  ASSERT_TRUE(click("Read Data Stream"));
  // Select every row on both pages, then return to the first.
  while (click("[ ]")) {
  }
  ASSERT_EQ(rows_on_page(), 14u);
  ASSERT_TRUE(click("Next Page"));
  while (click("[ ]")) {
  }
  ASSERT_EQ(rows_on_page(), 10u);
  ASSERT_TRUE(click("Prev Page"));
  ASSERT_TRUE(click("Start"));
  ASSERT_EQ(fast_.tool.mode(), DiagnosticTool::Mode::kDataLive);

  EXPECT_GT(run_and_compare(3 * util::kSecond), 0u);
  ASSERT_TRUE(click("Next Page"));  // the page flip, mid-stream
  EXPECT_EQ(rows_on_page(), 10u);
  EXPECT_GT(run_and_compare(3 * util::kSecond), 0u);
  ASSERT_TRUE(click("Prev Page"));
  EXPECT_GT(run_and_compare(2 * util::kSecond), 0u);
  ASSERT_TRUE(click("Stop"));
  // Repaints still land after Stop, but the select view shows no values.
  EXPECT_EQ(run_and_compare(1 * util::kSecond), 0u);
}

TEST_F(RepaintEquivalence, ObdLiveView) {
  ASSERT_TRUE(click("OBD-II Scan"));
  ASSERT_EQ(fast_.tool.mode(), DiagnosticTool::Mode::kObdLive);
  EXPECT_GT(run_and_compare(4 * util::kSecond), 0u);
}

}  // namespace
}  // namespace dpr::diagtool
