// Checkpoint-store durability and self-healing: a torn, corrupt,
// key-mismatched, pre-v5 or future-format file must be quarantined with a
// logged reason (and the campaign re-runs the phase instead of failing);
// the MANIFEST must account for every mutation of the directory; the
// options digest that names checkpoint files must not drift between
// builds; and a collected video must survive a state round trip region
// for region.
//
// The one committed fixture is a v4 container written by a build that
// predates v5, keyed for fixture_options() on Car A: this build must
// reject it safely, never resume from it.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "util/checkpoint.hpp"
#include "vehicle/catalog.hpp"

#ifndef DPR_FIXTURE_DIR
#define DPR_FIXTURE_DIR "tests/fixtures/checkpoints"
#endif

namespace dpr {
namespace {

namespace fs = std::filesystem;

/// Same small-but-real profile the resilience suite uses; the committed
/// v4 fixture is named for this option set's digest.
core::CampaignOptions fixture_options() {
  core::CampaignOptions options;
  options.live_window = 4 * util::kSecond;
  options.gp.population = 48;
  options.gp.max_generations = 8;
  return options;
}

struct FixtureKeys {
  std::uint64_t car = 0;  ///< spec digest
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
};

FixtureKeys fixture_keys() {
  const core::Campaign probe(vehicle::CarId::kA, fixture_options());
  return {probe.checkpoint_car_key(), fixture_options().seed,
          probe.checkpoint_options_digest()};
}

/// The committed pre-v5 file, under the name today's build looks for.
std::string v4_fixture() {
  const auto keys = fixture_keys();
  return core::CheckpointStore(DPR_FIXTURE_DIR)
      .path_for(keys.car, keys.seed, keys.digest);
}

const std::string& fresh_signature() {
  static const std::string signature = [] {
    core::Campaign campaign(vehicle::CarId::kA, fixture_options());
    campaign.run();
    return core::report_signature(campaign.report());
  }();
  return signature;
}

/// Per-test scratch checkpoint directory.
class StoreDir : public ::testing::Test {
 protected:
  StoreDir()
      : dir_((fs::temp_directory_path() /
              ("dpr_ckpt_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                 .string()) {
    fs::remove_all(dir_);
  }
  ~StoreDir() override { fs::remove_all(dir_); }

  /// Copy a committed fixture into the scratch dir, name preserved.
  std::string install_fixture(const std::string& fixture_path) {
    fs::create_directories(dir_);
    const std::string target =
        dir_ + "/" + fs::path(fixture_path).filename().string();
    fs::copy_file(fixture_path, target);
    return target;
  }

  /// A real v5 checkpoint: the fixture campaign stopped after ocr_extract.
  std::string write_v5_checkpoint() {
    auto options = fixture_options();
    options.checkpoint_dir = dir_;
    options.stop_after_phase = 2;
    core::Campaign(vehicle::CarId::kA, options).run();
    const auto keys = fixture_keys();
    return core::CheckpointStore(dir_).path_for(keys.car, keys.seed,
                                                keys.digest);
  }

  std::string dir_;
};

TEST(Fixtures, PreV5FileIsCommitted) {
  EXPECT_TRUE(fs::exists(v4_fixture())) << v4_fixture();
}

// --- Digests: checkpoint filenames stay stable across builds --------------

TEST(OptionsDigest, PinnedForDefaultFaultedNmAndVetoConfigs) {
  // A change to any of these renames every checkpoint file of that
  // configuration, silently orphaning resumable state.
  const auto digest = [](const core::CampaignOptions& options) {
    return core::Campaign(vehicle::CarId::kA, options)
        .checkpoint_options_digest();
  };
  core::CampaignOptions options;
  EXPECT_EQ(digest(options), 0xee9777ed0db60bd7ULL);
  auto faulted = options;
  faulted.faults.rate = 0.01;
  EXPECT_EQ(digest(faulted), 0xd586dd22a57236ddULL);
  auto stateful = options;
  stateful.faults.reset_rate = 0.01;
  stateful.faults.session_faults = true;
  EXPECT_EQ(digest(stateful), 0xe9e6954a861245e0ULL);
  auto nm = options;
  nm.faults.nm = true;
  EXPECT_EQ(digest(nm), 0x1925d8ca03d95282ULL);
  auto veto = nm;
  veto.faults.nm_veto_address = 2;
  EXPECT_EQ(digest(veto), 0xded4a4e53295e357ULL);
  EXPECT_EQ(digest(fixture_options()), 0xc12c4f96de841d69ULL);
}

// --- Video: camera frames travel through a checkpoint unchanged ----------

/// FNV-1a over everything a recorded frame shows: timestamp, size, every
/// text region (truth, bounds, font size, row, clickable) and every icon.
std::uint64_t video_digest(const cps::VideoRecording& video) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto fold = [&h](std::int64_t v) {
    h = util::fnv1a64_u64(static_cast<std::uint64_t>(v), h);
  };
  const auto fold_rect = [&fold](const diagtool::Rect& r) {
    fold(r.x);
    fold(r.y);
    fold(r.w);
    fold(r.h);
  };
  fold(static_cast<std::int64_t>(video.frames.size()));
  for (const auto& frame : video.frames) {
    fold(frame.timestamp);
    fold(frame.width);
    fold(frame.height);
    fold(static_cast<std::int64_t>(frame.text_regions().size()));
    for (const auto& region : frame.text_regions()) {
      h = util::fnv1a64_str(region.truth, h);
      fold_rect(region.bounds);
      fold(region.font_px);
      fold(region.row);
      fold(region.clickable);
    }
    fold(static_cast<std::int64_t>(frame.icon_regions().size()));
    for (const auto& icon : frame.icon_regions()) {
      fold_rect(icon.bounds);
      h = util::fnv1a64_str(icon.icon_identity, h);
    }
  }
  return h;
}

TEST(Video, CollectedVideoPinned) {
  // Pinned before frames shared their images: sharing must not change a
  // single recorded region.
  core::Campaign campaign(vehicle::CarId::kA, fixture_options());
  campaign.collect();
  EXPECT_EQ(campaign.video().frames.size(), 56u);
  EXPECT_EQ(video_digest(campaign.video()), 0x71c238e82102ab91ULL);
}

TEST(Video, StateRoundTripIsByteIdentical) {
  core::Campaign campaign(vehicle::CarId::kA, fixture_options());
  campaign.collect();
  const auto saved =
      campaign.serialize_state_versioned(core::kCheckpointPayloadSchema);

  core::Campaign restored(vehicle::CarId::kA, fixture_options());
  ASSERT_TRUE(restored.restore_state(saved));
  EXPECT_EQ(restored.serialize_state_versioned(core::kCheckpointPayloadSchema),
            saved);

  const auto& want = campaign.video().frames;
  const auto& got = restored.video().frames;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    EXPECT_EQ(got[i].timestamp, want[i].timestamp);
    EXPECT_EQ(got[i].width, want[i].width);
    EXPECT_EQ(got[i].height, want[i].height);
    EXPECT_TRUE(std::ranges::equal(got[i].text_regions(),
                                   want[i].text_regions()));
    EXPECT_TRUE(std::ranges::equal(got[i].icon_regions(),
                                   want[i].icon_regions()));
  }
}

// --- Resume: v5 round trip, pre-v5 rejected --------------------------------

TEST_F(StoreDir, V5CheckpointResumesToIdenticalSignature) {
  write_v5_checkpoint();
  auto options = fixture_options();
  options.checkpoint_dir = dir_;
  options.resume = true;
  core::Campaign resumed(vehicle::CarId::kA, options);
  resumed.run();
  EXPECT_EQ(core::report_signature(resumed.report()), fresh_signature());
  EXPECT_EQ(resumed.report().ckpt_quarantined, 0u);
}

TEST_F(StoreDir, PreV5CheckpointQuarantinedAndRunFresh) {
  const auto keys = fixture_keys();
  const std::string path = install_fixture(v4_fixture());
  {
    const core::CheckpointStore store(dir_);
    const auto result = store.load(keys.car, keys.seed, keys.digest);
    EXPECT_FALSE(result.has_value());
    EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kBadStructure);
    EXPECT_NE(result.detail.find("predates v5"), std::string::npos)
        << result.detail;
    EXPECT_TRUE(result.quarantined);
    EXPECT_FALSE(fs::exists(path));
  }

  // Through the campaign: the old file costs nothing but a fresh start.
  fs::remove_all(dir_);
  install_fixture(v4_fixture());
  auto options = fixture_options();
  options.checkpoint_dir = dir_;
  options.resume = true;
  core::Campaign resumed(vehicle::CarId::kA, options);
  resumed.run();
  EXPECT_EQ(core::report_signature(resumed.report()), fresh_signature());
  EXPECT_EQ(resumed.report().ckpt_quarantined, 1u);

  const core::CheckpointStore store(dir_);
  EXPECT_EQ(store.manifest().quarantines, 1u);
  const auto log = util::read_file(store.reasons_log_path());
  ASSERT_TRUE(log.has_value());
  const std::string text(log->begin(), log->end());
  EXPECT_NE(text.find("predates v5"), std::string::npos);
}

// --- Self-healing: untrustworthy files are quarantined, never fatal -------

TEST_F(StoreDir, TruncatedCheckpointQuarantinedAndPhaseRerun) {
  const std::string path = write_v5_checkpoint();
  const auto full = util::read_file(path);
  ASSERT_TRUE(full.has_value());
  {
    // Tear the file the way a crashed non-durable writer would.
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(reinterpret_cast<const char*>(full->data()),
               static_cast<std::streamsize>(full->size() / 2));
  }

  auto options = fixture_options();
  options.checkpoint_dir = dir_;
  options.resume = true;
  core::Campaign resumed(vehicle::CarId::kA, options);
  resumed.run();
  // The bad file cost nothing but a fresh start: same signature, one
  // quarantined checkpoint, reason on record.
  EXPECT_EQ(core::report_signature(resumed.report()), fresh_signature());
  EXPECT_EQ(resumed.report().ckpt_quarantined, 1u);

  const core::CheckpointStore store(dir_);
  EXPECT_EQ(store.manifest().quarantines, 1u);
  const auto log = util::read_file(store.reasons_log_path());
  ASSERT_TRUE(log.has_value());
  const std::string text(log->begin(), log->end());
  EXPECT_NE(text.find(fs::path(path).filename().string()), std::string::npos);
  EXPECT_NE(text.find("torn"), std::string::npos);
}

TEST_F(StoreDir, CorruptedByteIsTornNotCrash) {
  const auto keys = fixture_keys();
  const std::string path = write_v5_checkpoint();
  auto data = *util::read_file(path);
  data[data.size() / 2] ^= 0x40;
  ASSERT_TRUE(util::write_file_atomic(path, data));

  const core::CheckpointStore store(dir_);
  const auto result = store.load(keys.car, keys.seed, keys.digest);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kTorn);
  EXPECT_TRUE(result.quarantined);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(store.quarantine_dir() + "/" +
                         fs::path(path).filename().string()));
}

TEST_F(StoreDir, FutureContainerVersionRejectedWithReason) {
  const auto keys = fixture_keys();
  const core::CheckpointStore store(dir_);
  util::BinaryWriter w;
  w.u32(core::kCheckpointMagic);
  w.u32(core::kCheckpointVersion + 1);
  w.u64(util::fnv1a64(w.data()));
  ASSERT_TRUE(util::write_file_atomic(
      store.path_for(keys.car, keys.seed, keys.digest), w.data()));

  const auto result = store.load(keys.car, keys.seed, keys.digest);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kFutureVersion);
  EXPECT_TRUE(result.quarantined);
  EXPECT_NE(result.detail.find("newer build"), std::string::npos);
}

TEST_F(StoreDir, UnknownSectionRejectedByName) {
  const auto keys = fixture_keys();
  const core::CheckpointStore store(dir_);
  util::BinaryWriter w;
  w.u32(core::kCheckpointMagic);
  w.u32(core::kCheckpointVersion);
  w.u32(1);            // one section, and it's one this build lacks
  w.u32(0x00585858);   // "XXX"
  w.u32(1);
  w.bytes(util::Bytes{0xAB});
  w.u64(util::fnv1a64(w.data()));
  ASSERT_TRUE(util::write_file_atomic(
      store.path_for(keys.car, keys.seed, keys.digest), w.data()));

  const auto result = store.load(keys.car, keys.seed, keys.digest);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kUnknownSection);
  EXPECT_TRUE(result.quarantined);
  EXPECT_NE(result.detail.find("0x00585858"), std::string::npos);
}

TEST_F(StoreDir, EmbeddedKeyMismatchQuarantined) {
  const core::CheckpointStore store(dir_);
  // File named for one digest, content keyed for another: the classic
  // "renamed by hand" corruption.
  const util::Bytes payload{0x01, 0x02};
  ASSERT_TRUE(store.save(7, 8, 9, 0, payload));
  fs::rename(store.path_for(7, 8, 9), store.path_for(7, 8, 10));

  const auto result = store.load(7, 8, 10);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kKeyMismatch);
  EXPECT_TRUE(result.quarantined);
}

TEST_F(StoreDir, MissingFileIsACleanMissNotAFault) {
  const core::CheckpointStore store(dir_);
  const auto result = store.load(1, 2, 3);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kMissing);
  EXPECT_FALSE(result.quarantined);
  EXPECT_STREQ(core::CheckpointStore::load_error_name(result.error),
               "missing");
}

// --- heal(): one sweep quarantines the bad, keeps the good ----------------

TEST_F(StoreDir, HealSweepsGarbageOldFilesAndDeadTmps) {
  const auto keys = fixture_keys();
  const core::CheckpointStore store(dir_);
  // Healthy v5 file (via a real save) under another key, the pre-v5
  // fixture, one garbage file wearing the .ckpt extension, one temp file
  // of a dead writer.
  const util::Bytes payload{0x01, 0x02, 0x03};
  ASSERT_TRUE(store.save(keys.car, keys.seed, keys.digest ^ 1, 1, payload));
  install_fixture(v4_fixture());
  const util::Bytes garbage{'n', 'o', 't', ' ', 'a', ' ', 'c', 'k', 'p',
                            't', ' ', 'a', 't', ' ', 'a', 'l', 'l', '!'};
  ASSERT_TRUE(util::write_file_atomic(dir_ + "/dpr-garbage.ckpt", garbage));

  // A guaranteed-dead pid: fork a child that exits immediately.
  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(dead, &status, 0), dead);
  {
    std::ofstream tmp(dir_ + "/dpr-orphan.ckpt.tmp." + std::to_string(dead));
    tmp << "half-written";
  }

  const auto healed = store.heal();
  EXPECT_EQ(healed.scanned, 3u);
  EXPECT_EQ(healed.healthy, 1u);
  EXPECT_EQ(healed.quarantined, 2u);  // garbage + pre-v5
  EXPECT_EQ(healed.tmp_swept, 1u);
  EXPECT_FALSE(fs::exists(dir_ + "/dpr-garbage.ckpt"));
  EXPECT_FALSE(fs::exists(fs::path(dir_) / fs::path(v4_fixture()).filename()));
  EXPECT_TRUE(fs::exists(store.path_for(keys.car, keys.seed, keys.digest ^ 1)));

  // The directory is now stable: a second sweep finds nothing to do.
  const auto again = store.heal();
  EXPECT_EQ(again.quarantined, 0u);
  EXPECT_EQ(again.tmp_swept, 0u);
}

// --- MANIFEST bookkeeping --------------------------------------------------

TEST_F(StoreDir, ManifestAccountsForEveryMutation) {
  const core::CheckpointStore store(dir_);
  EXPECT_EQ(store.manifest().generation, 0u);  // absent reads as zeros

  const util::Bytes payload{0xAA, 0xBB};
  ASSERT_TRUE(store.save(7, 8, 9, 0, payload));
  ASSERT_TRUE(store.save(7, 8, 9, 1, payload));
  EXPECT_EQ(store.manifest().saves, 2u);
  EXPECT_EQ(store.manifest().generation, 2u);

  store.remove(7, 8, 9);
  EXPECT_EQ(store.manifest().removes, 1u);
  EXPECT_EQ(store.manifest().generation, 3u);
  store.remove(7, 8, 9);  // removing a missing key is not a mutation
  EXPECT_EQ(store.manifest().removes, 1u);

  // A torn manifest reads as zeros and is rebuilt by the next mutation.
  {
    std::ofstream torn(dir_ + "/MANIFEST",
                       std::ios::binary | std::ios::trunc);
    torn << "ga";
  }
  EXPECT_EQ(store.manifest().generation, 0u);
  ASSERT_TRUE(store.save(7, 8, 9, 2, payload));
  EXPECT_EQ(store.manifest().generation, 1u);
  EXPECT_EQ(store.manifest().saves, 1u);
}

// --- Error-reason surface (satellite b) ------------------------------------

TEST_F(StoreDir, SaveSurfacesFailingStageAndErrno) {
  // A store rooted under a regular file cannot create its directory, so
  // the very first step of the atomic write protocol must fail — with a
  // stage name and errno, not a bare false.
  fs::create_directories(dir_);
  const std::string blocker = dir_ + "/not_a_dir";
  { std::ofstream out(blocker); out << "file"; }
  const core::CheckpointStore store(blocker + "/sub");
  const util::Bytes payload{0x00};
  const auto saved = store.save(1, 2, 3, 0, payload);
  EXPECT_FALSE(saved);
  EXPECT_NE(saved.error, 0);
  EXPECT_STRNE(saved.stage, "");
  EXPECT_NE(saved.message().find(saved.stage), std::string::npos);
}

}  // namespace
}  // namespace dpr
