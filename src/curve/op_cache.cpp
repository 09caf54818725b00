#include "curve/op_cache.h"

#include <bit>
#include <cstring>

namespace wlc::curve {

namespace {

// splitmix64-style word mixer; two independently seeded lanes give the
// 128-bit fingerprint. Inputs are the raw IEEE-754 bit patterns — two curves
// fingerprint equal iff they are bit-identical (including -0.0 vs 0.0 and
// NaN payloads), which is exactly the equivalence the bit-identity contract
// of the engine needs.
std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::uint64_t fingerprint(const DiscreteCurve& c, std::uint64_t seed) {
  std::uint64_t h = mix(seed, c.size());
  h = mix(h, std::bit_cast<std::uint64_t>(c.dt()));
  for (double v : c.values()) h = mix(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

std::size_t entry_bytes(std::size_t n) {
  // Sample storage plus a flat estimate of list/map node overhead.
  return n * sizeof(double) + 128;
}

}  // namespace

std::size_t OpCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.fp_f_lo;
  h = mix(h, k.fp_g_lo);
  h = mix(h, k.op);
  return static_cast<std::size_t>(h);
}

OpCache::Key OpCache::make_key(CurveOp op, const DiscreteCurve& f,
                               const DiscreteCurve& g) {
  return Key{fingerprint(f, 0x1234567890abcdefULL), fingerprint(f, 0xfedcba0987654321ULL),
             fingerprint(g, 0x1234567890abcdefULL), fingerprint(g, 0xfedcba0987654321ULL),
             static_cast<std::uint8_t>(op)};
}

OpCache::OpCache(std::size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

void OpCache::set_capacity_bytes(std::size_t capacity_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_bytes_ = capacity_bytes;
  evict_to_fit_locked(0);
}

std::size_t OpCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_bytes_;
}

std::optional<DiscreteCurve> OpCache::lookup(CurveOp op, const DiscreteCurve& f,
                                             const DiscreteCurve& g) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_bytes_ == 0) {
    ++misses_;
    return std::nullopt;
  }
  const auto it = index_.find(make_key(op, f, g));
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return DiscreteCurve(it->second->values, it->second->dt);
}

std::size_t OpCache::insert(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g,
                            const DiscreteCurve& result) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t bytes = entry_bytes(result.size());
  if (capacity_bytes_ == 0 || bytes > capacity_bytes_) return 0;
  const Key key = make_key(op, f, g);
  if (const auto it = index_.find(key); it != index_.end()) {
    // Another thread raced the same computation in; results are
    // bit-identical, so just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return 0;
  }
  const std::size_t evicted = evict_to_fit_locked(bytes);
  lru_.push_front(Entry{key, result.values(), result.dt(), bytes});
  index_.emplace(key, lru_.begin());
  resident_bytes_ += bytes;
  ++inserts_;
  return evicted;
}

std::size_t OpCache::evict_to_fit_locked(std::size_t needed) {
  std::size_t evicted = 0;
  while (!lru_.empty() && resident_bytes_ + needed > capacity_bytes_) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
    ++evicted;
  }
  return evicted;
}

OpCache::Stats OpCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.inserts = inserts_;
  s.entries = lru_.size();
  s.resident_bytes = resident_bytes_;
  s.capacity_bytes = capacity_bytes_;
  return s;
}

void OpCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  resident_bytes_ = 0;
  hits_ = misses_ = evictions_ = inserts_ = 0;
}

OpCache& OpCache::global() {
  // Leaked singleton, same lifetime discipline as obs::registry(): worker
  // threads may touch the cache during static destruction otherwise.
  static OpCache* cache = new OpCache();
  return *cache;
}

}  // namespace wlc::curve
