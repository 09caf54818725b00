// Wire-format and lifecycle suite for the snapshot v2 PWL tier (CTest label
// `pwl`). The daemon no longer writes a tier; older daemons did, and their
// files must still load. Two layers of guarantees:
//
//   · Format: v2 snapshots round-trip the tier exactly; v1 bytes (no tier)
//     still decode; *any* corruption inside the tier block — bit flips,
//     truncation, tier-version skew, a mispaired rounding — is a ParseError
//     even when the outer payload checksum is re-sealed around the damage
//     (the tier carries its own version + CRC precisely so tier damage is
//     caught and named on its own).
//   · Session lifecycle: recovery and migration of a tier-carrying file go
//     through the same strict decode, then shed the tier. A structurally
//     corrupt tier quarantines (or refuses) the whole snapshot; a sound one
//     resumes bit-identically, and the session's next snapshot is tierless.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "curve/compact.h"
#include "curve/discrete_curve.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "workload/extract.h"
#include "workload/online_extract.h"
#include "workload/workload_curve.h"

namespace wlc::serve {
namespace {

namespace fs = std::filesystem;
using curve::CompactBudget;
using curve::CompactCurve;
using curve::CompactRounding;
using workload::OnlineWorkloadExtractor;

std::vector<Cycles> demo_demands(std::size_t n, std::uint64_t seed = 17) {
  common::Rng rng(seed);
  std::vector<Cycles> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<Cycles>(rng.uniform_int(1, 8000)));
  return out;
}

curve::DiscreteCurve index_curve(const std::vector<workload::WorkloadCurve::Point>& pts) {
  std::vector<double> v;
  v.reserve(pts.size());
  for (const auto& p : pts) v.push_back(static_cast<double>(p.second));
  return curve::DiscreteCurve(std::move(v), 1.0);
}

/// Tier over the breakpoint-index grid — the recipe tiered daemons used when
/// persisting.
PwlTier make_tier(const OnlineWorkloadExtractor& ex, const CompactBudget& budget) {
  return PwlTier{CompactCurve::compact_upper(index_curve(ex.upper().points()), budget),
                 CompactCurve::compact_lower(index_curve(ex.lower().points()), budget)};
}

SessionSnapshot tiered_snapshot(std::size_t events = 300,
                                CompactBudget budget = CompactBudget{0.0, 1e-3}) {
  OnlineWorkloadExtractor ex({1, 2, 5, 13, 40});
  for (Cycles d : demo_demands(events)) ex.try_push(d);
  SessionSnapshot snap{"sess-pwl", "tenant.p", ex.export_state(), std::nullopt};
  snap.tier = make_tier(ex, budget);
  return snap;
}

// -- byte surgery -----------------------------------------------------------

void put_u32_le(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) bytes[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
}

/// Recomputes the outer header (payload size + CRC) around a tampered
/// payload, so decode reaches the *inner* tier validation instead of
/// stopping at the whole-snapshot checksum.
std::string reseal(std::string payload, std::uint32_t version = kSnapshotVersion) {
  std::string out(kSnapshotMagic);
  out.resize(kSnapshotHeaderBytes, '\0');
  put_u32_le(out, 8, version);
  for (int b = 0; b < 8; ++b)
    out[12 + b] = static_cast<char>((payload.size() >> (8 * b)) & 0xff);
  put_u32_le(out, 20, crc32(payload));
  return out + payload;
}

std::string payload_of(const std::string& bytes) {
  return bytes.substr(kSnapshotHeaderBytes);
}

void expect_tier_equal(const PwlTier& a, const PwlTier& b) {
  EXPECT_TRUE(a.upper == b.upper);
  EXPECT_TRUE(a.lower == b.lower);
  EXPECT_EQ(a.upper.budget().eps_abs, b.upper.budget().eps_abs);
  EXPECT_EQ(a.upper.budget().eps_rel, b.upper.budget().eps_rel);
  EXPECT_EQ(a.upper.max_error(), b.upper.max_error());
  EXPECT_EQ(a.lower.max_error(), b.lower.max_error());
}

// ---------------------------------------------------------------------------
// Format: round-trips and backward compatibility.
// ---------------------------------------------------------------------------

TEST(PwlSnapshotTier, V2RoundTripPreservesTheTierExactly) {
  const SessionSnapshot snap = tiered_snapshot();
  const SessionSnapshot back = decode_snapshot(encode_snapshot(snap));
  ASSERT_TRUE(back.tier.has_value());
  expect_tier_equal(*back.tier, *snap.tier);
  EXPECT_EQ(back.tier->upper.rounding(), CompactRounding::Up);
  EXPECT_EQ(back.tier->lower.rounding(), CompactRounding::Down);
}

TEST(PwlSnapshotTier, TierlessV2RoundTrips) {
  SessionSnapshot snap = tiered_snapshot();
  snap.tier.reset();
  const SessionSnapshot back = decode_snapshot(encode_snapshot(snap));
  EXPECT_FALSE(back.tier.has_value());
}

TEST(PwlSnapshotTier, V1BytesWithoutTierStillDecode) {
  // A v1 payload is exactly a tierless v2 payload minus the trailing
  // has_tier byte — reconstruct one and make sure this build still reads it.
  SessionSnapshot snap = tiered_snapshot();
  snap.tier.reset();
  std::string payload = payload_of(encode_snapshot(snap));
  ASSERT_EQ(payload.back(), '\0');  // has_tier = 0
  payload.pop_back();
  const SessionSnapshot back = decode_snapshot(reseal(std::move(payload), 1));
  EXPECT_FALSE(back.tier.has_value());
  EXPECT_EQ(back.session_id, snap.session_id);
  EXPECT_EQ(back.extractor.events, snap.extractor.events);
}

TEST(PwlSnapshotTier, V1BytesWithTrailingTierBlockAreRejected) {
  // Declaring version 1 does not smuggle tier bytes past the parser: the v1
  // decoder stops before the tier block, so the bytes surface as trailing
  // garbage.
  const std::string payload = payload_of(encode_snapshot(tiered_snapshot()));
  EXPECT_THROW(decode_snapshot(reseal(payload, 1)), ParseError);
}

// ---------------------------------------------------------------------------
// Corruption matrix: every byte of the tier block, flipped and re-sealed.
// ---------------------------------------------------------------------------

TEST(PwlSnapshotTier, EveryResealedTierByteFlipIsParseError) {
  SessionSnapshot snap = tiered_snapshot(120);
  const std::string with_tier = payload_of(encode_snapshot(snap));
  snap.tier.reset();
  const std::size_t tier_start = payload_of(encode_snapshot(snap)).size() - 1;

  for (std::size_t i = tier_start; i < with_tier.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string bad = with_tier;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      // The outer checksum is re-sealed around the flip: only the tier's own
      // validation (presence flag, version, CRC, strict decode) can object.
      EXPECT_THROW(decode_snapshot(reseal(bad)), ParseError)
          << "tier flip of mask " << int(mask) << " at payload byte " << i
          << " (tier block starts at " << tier_start << ") not detected";
    }
  }
}

TEST(PwlSnapshotTier, TierTruncationAtEveryLengthIsParseError) {
  const std::string bytes = encode_snapshot(tiered_snapshot(80));
  for (std::size_t len = kSnapshotHeaderBytes; len < bytes.size(); ++len)
    EXPECT_THROW(decode_snapshot(bytes.substr(0, len)), ParseError) << len;
}

TEST(PwlSnapshotTier, TierVersionSkewIsNamed) {
  SessionSnapshot snap = tiered_snapshot(100);
  std::string payload = payload_of(encode_snapshot(snap));
  snap.tier.reset();
  const std::size_t tier_start = payload_of(encode_snapshot(snap)).size() - 1;
  put_u32_le(payload, tier_start + 1, 99);  // tier_version field
  try {
    decode_snapshot(reseal(std::move(payload)));
    FAIL() << "tier version skew accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("tier version"), std::string::npos) << e.what();
  }
}

TEST(PwlSnapshotTier, MispairedRoundingIsRejected) {
  SessionSnapshot snap = tiered_snapshot(90, CompactBudget{5.0, 0.0});
  // Down-compact both curves: structurally valid, but the upper slot must
  // round Up — decode enforces the pairing.
  OnlineWorkloadExtractor ex({1, 2, 5, 13, 40});
  for (Cycles d : demo_demands(90)) ex.try_push(d);
  snap.tier->upper =
      CompactCurve::compact_lower(index_curve(ex.upper().points()), CompactBudget{5.0, 0.0});
  try {
    decode_snapshot(encode_snapshot(snap));
    FAIL() << "mispaired tier rounding accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("round"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Session lifecycle: files that a tiered daemon wrote. This daemon writes no
// tier, so each file is built with encode_snapshot from tiered_snapshot().
// ---------------------------------------------------------------------------

struct TierDirs {
  fs::path dir;
  explicit TierDirs(const char* name) : dir(fs::temp_directory_path() / name) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TierDirs() { fs::remove_all(dir); }
};

SessionConfig state_config(const fs::path& dir) {
  SessionConfig cfg;
  cfg.state_dir = dir.string();
  return cfg;
}

std::string read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

void write_bytes(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(PwlTierLifecycle, StructurallyCorruptTierQuarantinesTheWholeSnapshot) {
  TierDirs dirs("wlc_pwl_tier_quarantine");
  // Corrupt one byte inside the tier block and re-seal the outer checksum:
  // the inner tier CRC fails, the decode throws, and recovery must
  // quarantine the file — never half-load the session without its tail.
  std::string payload = payload_of(encode_snapshot(tiered_snapshot(200)));
  payload[payload.size() - 5] = static_cast<char>(payload[payload.size() - 5] ^ 0x40);
  write_bytes(dirs.dir / "sess-pwl.wlcs", reseal(std::move(payload)));
  SessionManager fresh(state_config(dirs.dir));
  EXPECT_EQ(fresh.recover(), 0u);
  EXPECT_FALSE(fs::exists(dirs.dir / "sess-pwl.wlcs"));
  EXPECT_TRUE(fs::exists(dirs.dir / "sess-pwl.wlcs.corrupt"));
}

TEST(PwlTierLifecycle, MigrationCarriesTheTierAcrossDaemons) {
  // A tiered daemon's Migrate blob reaches this daemon: strict decode checks
  // its tier block, the session is accepted, and the tier is shed — what
  // the receiver persists and exports is the tierless encoding.
  TierDirs dst_dirs("wlc_pwl_tier_mig_dst");
  SessionSnapshot wire_snap = tiered_snapshot(280);
  const std::string bytes = encode_snapshot(wire_snap);
  SessionManager dst(state_config(dst_dirs.dir));
  const Reply dst_reply = dst.migrate_in(MigrateRequest{bytes});
  ASSERT_TRUE(std::holds_alternative<MigrateOkReply>(dst_reply));

  wire_snap.tier.reset();
  const std::string tierless = encode_snapshot(wire_snap);
  std::string out_bytes;
  ASSERT_TRUE(dst.export_session_snapshot("sess-pwl", &out_bytes));
  EXPECT_EQ(out_bytes, tierless);
  EXPECT_EQ(read_bytes(dst_dirs.dir / "sess-pwl.wlcs"), tierless);

  // A damaged tier in the blob refuses the whole migration.
  std::string payload = payload_of(bytes);
  payload[payload.size() - 5] = static_cast<char>(payload[payload.size() - 5] ^ 0x40);
  TierDirs bad_dirs("wlc_pwl_tier_mig_bad");
  SessionManager bad(state_config(bad_dirs.dir));
  EXPECT_TRUE(std::holds_alternative<ErrReply>(
      bad.migrate_in(MigrateRequest{reseal(std::move(payload))})));
  EXPECT_EQ(bad.live_sessions(), 0u);
}

TEST(PwlTierLifecycle, TierlessDaemonIgnoresPersistedTiers) {
  TierDirs dirs("wlc_pwl_tier_off");
  write_bytes(dirs.dir / "sess-pwl.wlcs", encode_snapshot(tiered_snapshot(220)));
  SessionManager fresh(state_config(dirs.dir));
  ASSERT_EQ(fresh.recover(), 1u);
  std::string bytes;
  ASSERT_TRUE(fresh.export_session_snapshot("sess-pwl", &bytes));
  // The daemon neither adopts nor recomputes a tier.
  EXPECT_FALSE(decode_snapshot(bytes).tier.has_value());
}

TEST(PwlTierLifecycle, OldTieredSnapshotResumesBitIdentically) {
  // The stream's length is on the grid, as the batch extractor's own grid
  // always ends there, so the point lists compare verbatim.
  const std::vector<EventCount> ks = {1, 2, 5, 13, 40, 700};
  const std::vector<Cycles> stream = demo_demands(700, 29);
  const std::size_t cut = 300;

  // What a tiered daemon persisted after the first `cut` demands.
  OnlineWorkloadExtractor before(ks);
  for (std::size_t i = 0; i < cut; ++i) ASSERT_TRUE(before.try_push(stream[i]));
  TierDirs dirs("wlc_pwl_tier_resume");
  write_bytes(dirs.dir / "s1.wlcs",
              encode_snapshot(SessionSnapshot{"s1", "t", before.export_state(),
                                              make_tier(before, CompactBudget{0.0, 1e-3})}));

  SessionManager mgr(state_config(dirs.dir));
  ASSERT_EQ(mgr.recover(), 1u);
  // The client resumes from the snapshotted cursor, in chunks.
  for (std::size_t pos = cut; pos < stream.size(); pos += 64) {
    PushRequest push;
    push.session_id = "s1";
    push.demands.assign(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                        stream.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(pos + 64, stream.size())));
    ASSERT_TRUE(std::holds_alternative<PushReply>(mgr.push(push)));
  }
  const Reply qr = mgr.query(QueryRequest{"s1"});
  const auto* curves = std::get_if<CurveReply>(&qr);
  ASSERT_NE(curves, nullptr);
  ASSERT_TRUE(curves->ready);
  EXPECT_EQ(curves->upper, workload::extract_upper(stream, ks).points());
  EXPECT_EQ(curves->lower, workload::extract_lower(stream, ks).points());

  // The first snapshot after recovery is the tierless encoding of the
  // state an uninterrupted extractor reaches on the whole stream.
  mgr.snapshot_all();
  OnlineWorkloadExtractor whole(ks);
  for (Cycles d : stream) ASSERT_TRUE(whole.try_push(d));
  EXPECT_EQ(read_bytes(dirs.dir / "s1.wlcs"),
            encode_snapshot(SessionSnapshot{"s1", "t", whole.export_state(), std::nullopt}));
}

}  // namespace
}  // namespace wlc::serve
