#include "serve/snapshot.h"

#include <cstring>

#include "common/atomic_file.h"
#include "serve/wire.h"

namespace wlc::serve {

namespace {

void write_wide_vec(Writer& w, const std::vector<workload::OnlineExtractorState::Wide>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& x : v) {
    w.i64(x.hi);
    w.u64(x.lo);
  }
}

std::vector<workload::OnlineExtractorState::Wide> read_wide_vec(Reader& r) {
  // One Wide is 16 bytes; Reader::vec primitives only know 1/8-byte
  // elements, so do the pre-allocation count check by hand.
  const std::uint32_t n = r.u32();
  if (static_cast<std::uint64_t>(n) * 16 > r.remaining())
    throw ParseError("snapshot corrupt: wide vector claims " + std::to_string(n) +
                         " elements but only " + std::to_string(r.remaining()) +
                         " bytes remain",
                     std::to_string(n), 0, 0, __FILE__, __LINE__);
  std::vector<workload::OnlineExtractorState::Wide> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    workload::OnlineExtractorState::Wide x;
    x.hi = r.i64();
    x.lo = r.u64();
    v.push_back(x);
  }
  return v;
}

void write_compact(Writer& w, const curve::CompactCurve& c) {
  w.u8(static_cast<std::uint8_t>(c.rounding()));
  w.f64(c.dt());
  w.u64(c.dense_size());
  w.f64(c.budget().eps_abs);
  w.f64(c.budget().eps_rel);
  w.f64(c.max_error());
  w.u32(static_cast<std::uint32_t>(c.knots().size()));
  for (const curve::CompactCurve::Knot& k : c.knots()) {
    w.u64(k.i);
    w.f64(k.y);
    w.f64(k.slope);
  }
}

curve::CompactCurve read_compact(Reader& r) {
  const std::uint8_t rounding = r.u8();
  if (rounding > 1)
    throw ParseError("snapshot pwl tier corrupt: unknown rounding tag",
                     std::to_string(rounding), 0, 0, __FILE__, __LINE__);
  const double dt = r.f64();
  const std::uint64_t dense_n = r.u64();
  curve::CompactBudget budget;
  budget.eps_abs = r.f64();
  budget.eps_rel = r.f64();
  const double max_error = r.f64();
  const std::uint32_t n = r.u32();
  // One knot is 24 bytes; bound the allocation before reserving.
  if (static_cast<std::uint64_t>(n) * 24 > r.remaining())
    throw ParseError("snapshot pwl tier corrupt: knot list claims " + std::to_string(n) +
                         " knots but only " + std::to_string(r.remaining()) +
                         " bytes remain",
                     std::to_string(n), 0, 0, __FILE__, __LINE__);
  std::vector<curve::CompactCurve::Knot> knots;
  knots.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    curve::CompactCurve::Knot k;
    k.i = r.u64();
    k.y = r.f64();
    k.slope = r.f64();
    knots.push_back(k);
  }
  try {
    return curve::CompactCurve::from_knots(std::move(knots), dt, dense_n,
                                           static_cast<curve::CompactRounding>(rounding),
                                           budget, max_error);
  } catch (const DomainError& err) {
    throw ParseError("snapshot pwl tier rejected: " + err.message(), err.offending(), 0, 0,
                     __FILE__, __LINE__);
  }
}

void encode_payload(Writer& w, const SessionSnapshot& snap) {
  w.str(snap.session_id);
  w.str(snap.tenant);
  const auto& e = snap.extractor;
  w.vec_i64(e.ks);
  write_wide_vec(w, e.window_sum);
  write_wide_vec(w, e.max_sum);
  write_wide_vec(w, e.min_sum);
  w.vec_u8(e.window_seen);
  w.vec_i64(e.ring);
  w.u64(e.ring_pos);
  w.i64(e.events);
  w.i64(e.clean_run);
  w.i64(e.quarantined);
  w.i64(e.windows_reset);
  // v2: optional PWL tier, independently versioned + CRC'd so tier damage
  // is caught (and named) even if the outer checksum were ever bypassed.
  if (snap.tier.has_value()) {
    w.u8(1);
    Writer tw;
    write_compact(tw, snap.tier->upper);
    write_compact(tw, snap.tier->lower);
    const std::string tier_payload = tw.take();
    w.u32(kPwlTierVersion);
    w.u32(crc32(tier_payload));
    w.str(tier_payload);
  } else {
    w.u8(0);
  }
}

SessionSnapshot decode_payload(std::string_view payload, std::uint32_t version) {
  Reader r(payload, "snapshot payload");
  SessionSnapshot snap;
  snap.session_id = r.str();
  snap.tenant = r.str();
  auto& e = snap.extractor;
  e.ks = r.vec_i64();
  e.window_sum = read_wide_vec(r);
  e.max_sum = read_wide_vec(r);
  e.min_sum = read_wide_vec(r);
  e.window_seen = r.vec_u8();
  e.ring = r.vec_i64();
  e.ring_pos = r.u64();
  e.events = r.i64();
  e.clean_run = r.i64();
  e.quarantined = r.i64();
  e.windows_reset = r.i64();
  if (version >= 2) {
    const std::uint8_t has_tier = r.u8();
    if (has_tier > 1)
      throw ParseError("snapshot corrupt: tier presence flag must be 0 or 1",
                       std::to_string(has_tier), 0, 0, __FILE__, __LINE__);
    if (has_tier == 1) {
      const std::uint32_t tier_version = r.u32();
      if (tier_version != kPwlTierVersion)
        throw ParseError("snapshot pwl tier version skew: file has tier version " +
                             std::to_string(tier_version) + ", this build reads version " +
                             std::to_string(kPwlTierVersion),
                         std::to_string(tier_version), 0, 0, __FILE__, __LINE__);
      const std::uint32_t tier_crc = r.u32();
      const std::string tier_payload = r.str();
      if (crc32(tier_payload) != tier_crc)
        throw ParseError("snapshot corrupt: pwl tier checksum mismatch", "", 0, 0, __FILE__,
                         __LINE__);
      Reader tr(tier_payload, "snapshot pwl tier");
      curve::CompactCurve upper = read_compact(tr);
      curve::CompactCurve lower = read_compact(tr);
      tr.expect_done();
      if (upper.rounding() != curve::CompactRounding::Up ||
          lower.rounding() != curve::CompactRounding::Down)
        throw ParseError(
            "snapshot pwl tier rejected: upper curve must round Up and lower curve Down", "",
            0, 0, __FILE__, __LINE__);
      snap.tier = PwlTier{std::move(upper), std::move(lower)};
    }
  }
  r.expect_done();
  // Semantic validation: the checksum above guards against random
  // corruption, this guards against anything else (a forged or
  // version-confused payload must not construct an unsound extractor).
  // from_state throws wlc::DomainError; surface it as the snapshot
  // rejection it is.
  try {
    (void)workload::OnlineWorkloadExtractor::from_state(e);
  } catch (const DomainError& err) {
    throw ParseError("snapshot state rejected: " + err.message(), err.offending(), 0, 0,
                     __FILE__, __LINE__);
  }
  return snap;
}

}  // namespace

std::string encode_snapshot(const SessionSnapshot& snap) {
  std::string out;
  encode_snapshot_into(snap, &out);
  return out;
}

void encode_snapshot_into(const SessionSnapshot& snap, std::string* out) {
  Writer w(std::move(*out));
  for (char c : kSnapshotMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kSnapshotVersion);
  w.u64(0);  // payload size and CRC, patched in once the payload is there
  w.u32(0);
  encode_payload(w, snap);
  *out = w.take();
  const std::string_view payload = std::string_view(*out).substr(kSnapshotHeaderBytes);
  const std::uint64_t size = payload.size();
  const std::uint32_t crc = crc32(payload);
  std::memcpy(out->data() + kSnapshotMagic.size() + 4, &size, sizeof size);
  std::memcpy(out->data() + kSnapshotMagic.size() + 12, &crc, sizeof crc);
}

SessionSnapshot decode_snapshot(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderBytes)
    throw ParseError("snapshot truncated: " + std::to_string(bytes.size()) +
                         " bytes is shorter than the " +
                         std::to_string(kSnapshotHeaderBytes) + "-byte header",
                     "", 0, 0, __FILE__, __LINE__);
  if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic)
    throw ParseError("snapshot rejected: bad magic (not a wlc session snapshot)", "", 0, 0,
                     __FILE__, __LINE__);
  Reader header(bytes.substr(kSnapshotMagic.size(), 16), "snapshot header");
  const std::uint32_t version = header.u32();
  if (version < kSnapshotMinVersion || version > kSnapshotVersion)
    throw ParseError("snapshot version skew: file is version " + std::to_string(version) +
                         ", this build reads versions " +
                         std::to_string(kSnapshotMinVersion) + ".." +
                         std::to_string(kSnapshotVersion),
                     std::to_string(version), 0, 0, __FILE__, __LINE__);
  const std::uint64_t payload_size = header.u64();
  const std::uint32_t checksum = header.u32();
  const std::string_view payload = bytes.substr(kSnapshotHeaderBytes);
  if (payload.size() != payload_size)
    throw ParseError("snapshot corrupt: header says " + std::to_string(payload_size) +
                         " payload bytes, file has " + std::to_string(payload.size()),
                     "", 0, 0, __FILE__, __LINE__);
  if (crc32(payload) != checksum)
    throw ParseError("snapshot corrupt: payload checksum mismatch", "", 0, 0, __FILE__,
                     __LINE__);
  return decode_payload(payload, version);
}

bool write_snapshot_file(const std::string& path, const SessionSnapshot& snap,
                         std::string* error, int* errno_out) {
  return common::atomic_write_file(path, encode_snapshot(snap), error, errno_out);
}

bool read_snapshot_file(const std::string& path, SessionSnapshot* snap, std::string* error) {
  std::string bytes;
  if (!common::read_file_bytes(path, &bytes, error)) return false;
  *snap = decode_snapshot(bytes);
  return true;
}

}  // namespace wlc::serve
