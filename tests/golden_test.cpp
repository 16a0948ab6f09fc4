// Golden report signatures: the behaviour contract.
//
// Each configuration below runs a whole fleet at 1, 2 and 8 fleet threads
// (GP batches share the fleet pool) and as many threads inside each GP
// search, plus one checkpointed run stopped after `align` and resumed.
// Every run must reproduce the committed fixture under
// tests/fixtures/signatures/: one line per car, "<label>\t<fnv1a64 of
// report_signature, 16 hex digits>".
// Digests rather than full signatures keep the fixtures small (the full
// text is about half a megabyte per configuration).
//
// On a mismatch the test names the first differing car and writes the
// fresh digests to <build>/tests/golden/<config>.sig. To regenerate a
// fixture after an intended behaviour change, run this test and copy that
// file over the fixture.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "util/checkpoint.hpp"
#include "vehicle/generator.hpp"

#ifndef DPR_SIGNATURE_DIR
#define DPR_SIGNATURE_DIR "tests/fixtures/signatures"
#endif
#ifndef DPR_GOLDEN_OUT_DIR
#define DPR_GOLDEN_OUT_DIR "golden"
#endif

namespace dpr::core {
namespace {

namespace fs = std::filesystem;

/// fleet_test's reduced GP settings: real traffic, small searches.
CampaignOptions small_options() {
  CampaignOptions options;
  options.live_window = 6 * util::kSecond;
  options.gp.population = 64;
  options.gp.max_generations = 10;
  return options;
}

struct Golden {
  std::string name;
  std::vector<vehicle::CarSpec> cars;
  CampaignOptions campaign;
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

std::vector<Golden> goldens() {
  std::vector<Golden> out;
  out.push_back({"catalog_clean", vehicle::catalog(), small_options()});

  Golden faulted{"catalog_faulted", vehicle::catalog(), small_options()};
  faulted.campaign.faults.rate = 0.01;
  out.push_back(faulted);

  Golden nm{"catalog_nm", vehicle::catalog(), small_options()};
  nm.campaign.faults.nm = true;
  out.push_back(nm);

  // Not one of the four headline fleets, but the only one that drives
  // the servers' reboot draws, S3 expiry and the session supervisor.
  Golden stateful{"catalog_stateful", vehicle::catalog(), small_options()};
  stateful.campaign.faults.reset_rate = 0.01;
  stateful.campaign.faults.session_faults = true;
  out.push_back(stateful);

  Golden generated{"generated_64",
                   vehicle::generate_fleet(vehicle::GeneratorConfig{}, 1, 64),
                   small_options()};
  generated.campaign.live_window = 4 * util::kSecond;
  out.push_back(generated);
  return out;
}

/// One "<label>\t<digest>" line per car, in fleet order.
std::string digests(const FleetSummary& summary) {
  std::ostringstream out;
  for (const auto& report : summary.reports) {
    const std::string signature = report_signature(report);
    const std::uint64_t h = util::fnv1a64(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(signature.data()),
        signature.size()));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    out << report.car_label << '\t' << hex << '\n';
  }
  return out.str();
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// Compare against the committed fixture; on a mismatch name the first
/// differing car and leave the fresh digests in the build tree.
void expect_matches_fixture(const std::string& config, const std::string& run,
                            const std::string& actual) {
  std::ifstream in(std::string(DPR_SIGNATURE_DIR) + "/" + config + ".sig");
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (actual == expected) return;

  fs::create_directories(DPR_GOLDEN_OUT_DIR);
  const std::string fresh =
      std::string(DPR_GOLDEN_OUT_DIR) + "/" + config + ".sig";
  std::ofstream(fresh) << actual;

  const auto want = lines(expected);
  const auto got = lines(actual);
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << config << " (" << run << ") diverges from "
                << DPR_SIGNATURE_DIR << "/" << config << ".sig at car #" << i
                << ": expected '" << (i < want.size() ? want[i] : "<end>")
                << "', got '" << (i < got.size() ? got[i] : "<end>")
                << "'; fresh digests written to " << fresh;
}

class GoldenSignatures : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenSignatures, MatchAtEveryThreadCountAndAcrossResume) {
  const Golden& golden = GetParam();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    FleetOptions options;
    options.fleet_threads = threads;
    options.campaign = golden.campaign;
    const auto summary = FleetRunner(options).run(golden.cars);
    expect_matches_fixture(golden.name,
                           std::to_string(threads) + " threads",
                           digests(summary));
  }

  // Interrupt every car after `align` (phase 3), then resume.
  const std::string dir =
      (fs::temp_directory_path() /
       ("dpr_golden_" + std::to_string(::getpid()) + "_" + golden.name))
          .string();
  fs::remove_all(dir);
  FleetOptions stopped;
  stopped.fleet_threads = 2;
  stopped.campaign = golden.campaign;
  stopped.campaign.checkpoint_dir = dir;
  stopped.campaign.stop_after_phase = 3;
  FleetRunner(stopped).run(golden.cars);

  FleetOptions resumed = stopped;
  resumed.campaign.stop_after_phase = -1;
  resumed.campaign.resume = true;
  const auto summary = FleetRunner(resumed).run(golden.cars);
  fs::remove_all(dir);
  EXPECT_EQ(summary.ckpt_quarantined, 0u);
  expect_matches_fixture(golden.name, "resume after align", digests(summary));
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, GoldenSignatures, ::testing::ValuesIn(goldens()),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace dpr::core
