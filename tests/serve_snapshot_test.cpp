// Snapshot robustness suite: a serve-daemon session snapshot restores the
// extractor bit-identically, and *no* corruption of the snapshot bytes —
// truncation at every length, a flip of any single byte, version skew,
// trailing garbage — is ever half-loaded: decode either succeeds on intact
// bytes or throws wlc::ParseError. This is the "crash-safe persistence is
// strict by construction" half of the serve robustness contract (the
// admission/backpressure half lives in serve_admission_test.cpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "workload/online_extract.h"

namespace wlc::serve {
namespace {

using workload::OnlineExtractorState;
using workload::OnlineWorkloadExtractor;

std::vector<Cycles> demo_demands(std::size_t n, std::uint64_t seed = 7) {
  common::Rng rng(seed);
  std::vector<Cycles> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<Cycles>(rng.uniform_int(0, 5000)));
  return out;
}

SessionSnapshot demo_snapshot(std::size_t events = 200) {
  OnlineWorkloadExtractor ex({1, 2, 5, 13, 50});
  for (Cycles d : demo_demands(events)) ex.try_push(d);
  return SessionSnapshot{"sess-1", "tenant.a", ex.export_state()};
}

TEST(ServeSnapshot, RoundTripIsExact) {
  const SessionSnapshot snap = demo_snapshot();
  const std::string bytes = encode_snapshot(snap);
  const SessionSnapshot back = decode_snapshot(bytes);
  EXPECT_EQ(back.session_id, snap.session_id);
  EXPECT_EQ(back.tenant, snap.tenant);
  EXPECT_EQ(back.extractor.ks, snap.extractor.ks);
  EXPECT_EQ(back.extractor.ring, snap.extractor.ring);
  EXPECT_EQ(back.extractor.ring_pos, snap.extractor.ring_pos);
  EXPECT_EQ(back.extractor.events, snap.extractor.events);
  EXPECT_EQ(back.extractor.quarantined, snap.extractor.quarantined);
  for (std::size_t i = 0; i < snap.extractor.ks.size(); ++i) {
    EXPECT_EQ(back.extractor.window_sum[i].hi, snap.extractor.window_sum[i].hi);
    EXPECT_EQ(back.extractor.window_sum[i].lo, snap.extractor.window_sum[i].lo);
    EXPECT_EQ(back.extractor.max_sum[i].lo, snap.extractor.max_sum[i].lo);
    EXPECT_EQ(back.extractor.min_sum[i].lo, snap.extractor.min_sum[i].lo);
  }
}

// The load-bearing property for crash recovery: snapshot at event t, restore,
// feed the identical tail — the restored extractor's curves and health are
// bit-identical to the uninterrupted run's at every later point.
TEST(ServeSnapshot, MidStreamRestoreResumesBitIdentically) {
  const auto demands = demo_demands(500, 21);
  // Include an invalid demand so the quarantine counters cross the snapshot.
  auto with_fault = demands;
  with_fault[137] = -4;

  OnlineWorkloadExtractor uninterrupted({1, 3, 8, 20, 64});
  OnlineWorkloadExtractor first_half({1, 3, 8, 20, 64});
  const std::size_t cut = 250;
  for (std::size_t i = 0; i < with_fault.size(); ++i) {
    uninterrupted.try_push(with_fault[i]);
    if (i < cut) first_half.try_push(with_fault[i]);
  }

  const std::string bytes =
      encode_snapshot({"s", "t", first_half.export_state()});
  OnlineWorkloadExtractor restored =
      OnlineWorkloadExtractor::from_state(decode_snapshot(bytes).extractor);
  for (std::size_t i = cut; i < with_fault.size(); ++i) restored.try_push(with_fault[i]);

  ASSERT_TRUE(restored.ready());
  EXPECT_EQ(restored.upper().points(), uninterrupted.upper().points());
  EXPECT_EQ(restored.lower().points(), uninterrupted.lower().points());
  EXPECT_EQ(restored.events_seen(), uninterrupted.events_seen());
  EXPECT_EQ(restored.health().quarantined, uninterrupted.health().quarantined);
  EXPECT_EQ(restored.health().windows_reset, uninterrupted.health().windows_reset);
}

TEST(ServeSnapshot, TruncationAtEveryLengthIsParseError) {
  const std::string bytes = encode_snapshot(demo_snapshot(60));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode_snapshot(std::string_view(bytes).substr(0, len)), ParseError)
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(ServeSnapshot, AnySingleByteFlipIsParseError) {
  const std::string bytes = encode_snapshot(demo_snapshot(60));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string bad = bytes;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      EXPECT_THROW(decode_snapshot(bad), ParseError)
          << "flip of bit mask " << int(mask) << " at byte " << i << " not detected";
    }
  }
}

TEST(ServeSnapshot, RandomByteFuzzNeverCrashes) {
  const std::string bytes = encode_snapshot(demo_snapshot(120));
  common::Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    std::string bad = bytes;
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bad.size()) - 1));
      bad[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    try {
      const SessionSnapshot snap = decode_snapshot(bad);
      // The edits may cancel out or hit the unused temp-byte space of the
      // strings — acceptance is fine as long as the state still validates.
      OnlineWorkloadExtractor::from_state(snap.extractor);
    } catch (const ParseError&) {
      // expected for virtually every mutation
    }
  }
}

TEST(ServeSnapshot, VersionSkewIsParseErrorNamingVersions) {
  std::string bytes = encode_snapshot(demo_snapshot(30));
  bytes[8] = 99;  // version field (offset 8, little-endian u32) — above kSnapshotVersion
  try {
    decode_snapshot(bytes);
    FAIL() << "version skew accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  // Below kSnapshotMinVersion is equally a skew.
  bytes[8] = 0;
  EXPECT_THROW(decode_snapshot(bytes), ParseError);
}

TEST(ServeSnapshot, TrailingBytesAreParseError) {
  std::string bytes = encode_snapshot(demo_snapshot(30));
  bytes += '\0';
  EXPECT_THROW(decode_snapshot(bytes), ParseError);
}

TEST(ServeSnapshot, InconsistentStateIsRejectedBySemanticValidation) {
  // Structurally well-formed wire bytes whose *state* is incoherent must be
  // refused by from_state (re-thrown as ParseError by decode_snapshot):
  // checksum-valid garbage cannot construct an unsound extractor.
  SessionSnapshot snap = demo_snapshot(50);
  snap.extractor.ring_pos = snap.extractor.ring.size() + 5;  // out of range
  const std::string bytes = encode_snapshot(snap);
  EXPECT_THROW(decode_snapshot(bytes), ParseError);

  SessionSnapshot snap2 = demo_snapshot(50);
  snap2.extractor.ks = {3, 2, 1};  // not sorted, no leading 1
  EXPECT_THROW(decode_snapshot(encode_snapshot(snap2)), ParseError);
}

TEST(ServeSnapshot, FileRoundTripAndMissingFile) {
  const auto dir = std::filesystem::temp_directory_path() / "wlc_snap_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "s.wlcs").string();
  const SessionSnapshot snap = demo_snapshot(80);
  std::string err;
  ASSERT_TRUE(write_snapshot_file(path, snap, &err)) << err;
  SessionSnapshot back;
  ASSERT_TRUE(read_snapshot_file(path, &back, &err)) << err;
  EXPECT_EQ(back.extractor.events, snap.extractor.events);
  EXPECT_FALSE(read_snapshot_file((dir / "absent.wlcs").string(), &back, &err));
  EXPECT_FALSE(err.empty());
  std::filesystem::remove_all(dir);
}

// The quarantine contract end to end: a corrupt *.wlcs present at startup
// is (1) moved aside as *.corrupt with its bytes preserved for post-mortem,
// (2) named in the daemon log, and (3) does not poison the id — a fresh
// Open with the same session id is admitted as a brand-new session at
// cursor 0, not resumed into half-loaded state.
TEST(ServeSnapshot, CorruptSnapshotIsQuarantinedNamedInLogAndIdRestartsAtZero) {
  const auto dir = std::filesystem::temp_directory_path() / "wlc_snap_quarantine";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string bytes = encode_snapshot(demo_snapshot(80));  // id "sess-1"
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  const std::string path = (dir / "sess-1.wlcs").string();
  std::string werr;
  ASSERT_TRUE(common::atomic_write_file(path, bytes, &werr)) << werr;

  std::ostringstream log;
  SessionConfig cfg;
  cfg.state_dir = dir.string();
  cfg.log = &log;
  SessionManager mgr(cfg);
  EXPECT_EQ(mgr.recover(), 0u);

  EXPECT_FALSE(std::filesystem::exists(path));
  const std::string quarantined = path + ".corrupt";
  ASSERT_TRUE(std::filesystem::exists(quarantined)) << log.str();
  std::ifstream in(quarantined, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), bytes);  // preserved byte-exact, not truncated/rewritten
  EXPECT_NE(log.str().find("sess-1.wlcs"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("quarantined"), std::string::npos) << log.str();

  OpenRequest open;
  open.session_id = "sess-1";
  open.tenant = "tenant.a";
  open.ks = {1, 2, 5};
  const auto out = mgr.open(open, SessionManager::Clock::now());
  ASSERT_EQ(out.kind, SessionManager::OpenOutcome::Kind::Replied);
  const auto* ok = std::get_if<OpenReply>(&out.reply);
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->resumed);
  EXPECT_EQ(ok->events_seen, 0);
  std::filesystem::remove_all(dir);
}

// A process killed mid-write leaves <id>.wlcs.tmp.<pid> behind. Recovery
// removes such files when <pid> is another process's, keeps this process's
// own (a write of its may be in flight), and loads the real snapshots.
TEST(ServeSnapshot, RecoverRemovesTempFilesOfDeadWriters) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("wlc_snap_orphans_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string werr;
  ASSERT_TRUE(common::atomic_write_file((dir / "sess-1.wlcs").string(),
                                        encode_snapshot(demo_snapshot(40)), &werr))
      << werr;
  const auto orphan = dir / "sess-1.wlcs.tmp.4294967295";
  const auto own = dir / ("sess-2.wlcs.tmp." + std::to_string(::getpid()));
  const auto unrelated = dir / "notes.tmp.12";
  for (const auto& p : {orphan, own, unrelated}) std::ofstream(p) << "partial";

  obs::registry().reset_for_testing();
  std::ostringstream log;
  SessionConfig cfg;
  cfg.state_dir = dir.string();
  cfg.log = &log;
  SessionManager mgr(cfg);
  EXPECT_EQ(mgr.recover(), 1u);
  EXPECT_FALSE(std::filesystem::exists(orphan)) << log.str();
  EXPECT_TRUE(std::filesystem::exists(own));
  EXPECT_TRUE(std::filesystem::exists(unrelated));
  std::int64_t removed = 0;
  for (const auto& c : obs::registry().snapshot().counters)
    if (c.name == "serve.snapshots.orphans_removed") removed = c.value;
  EXPECT_EQ(removed, 1);
  std::filesystem::remove_all(dir);
}

TEST(ServeSnapshot, Crc32MatchesKnownVector) {
  // IEEE 802.3 test vector: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

}  // namespace
}  // namespace wlc::serve
