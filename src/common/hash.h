// Hashing helpers for composite keys.
#ifndef RDFVIEWS_COMMON_HASH_H_
#define RDFVIEWS_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace rdfviews {

/// Combines a hash value into a seed (boost::hash_combine recipe, 64-bit).
inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// Hash for small integer sequences (e.g., tuple of term ids).
struct VectorHash {
  template <typename T>
  size_t operator()(const std::vector<T>& v) const {
    size_t seed = v.size();
    for (const T& x : v) HashCombine(&seed, std::hash<T>()(x));
    return seed;
  }
};

/// Finalizer of the splitmix64 generator: a cheap, well-mixed 64-bit
/// permutation used to derive independent hash streams.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A 128-bit hash value with component-wise modular addition, so that sums
/// of hashes form an order-independent *multiset* digest: adding the same
/// element twice yields a different digest than adding it once (unlike XOR),
/// and removal is exact subtraction. Collisions require two multisets whose
/// 128-bit sums coincide — negligible at the scale of a search run.
struct Hash128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Hash128& a, const Hash128& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Hash128& a, const Hash128& b) {
    return !(a == b);
  }

  Hash128& operator+=(const Hash128& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
  Hash128& operator-=(const Hash128& o) {
    lo -= o.lo;
    hi -= o.hi;
    return *this;
  }
};

/// Hashes a byte string into 128 bits: two independently-seeded FNV-1a
/// streams, each finalized through Mix64.
inline Hash128 HashBytes128(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t a = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  uint64_t b = 0x2545f4914f6cdd1dULL;  // independent stream
  for (size_t i = 0; i < size; ++i) {
    a = (a ^ bytes[i]) * 0x100000001b3ULL;
    b = (b ^ bytes[i]) * 0xc6a4a7935bd1e995ULL;
  }
  return Hash128{Mix64(a), Mix64(b ^ size)};
}

namespace internal {

inline uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// The little-endian 64-bit word at `p` (the checksum is defined over LE
/// words, so its bytes do not depend on the host).
inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t w;
  __builtin_memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

inline constexpr uint64_t kChecksumP1 = 0x9e3779b185ebca87ULL;
inline constexpr uint64_t kChecksumP2 = 0xc2b2ae3d27d4eb4fULL;

/// One lane step. For a fixed lane state it is a bijection of `word` (odd
/// multiply, add, rotate, odd multiply), and for a fixed word a bijection
/// of the state, so a changed word always changes the lane's final state.
inline uint64_t ChecksumRound(uint64_t lane, uint64_t word) {
  return Rotl64(lane + word * kChecksumP2, 31) * kChecksumP1;
}

}  // namespace internal

/// The 128-bit integrity checksum of a byte string, for the blob and frame
/// envelopes. Word at a time: four independent multiply-rotate lanes take
/// consecutive 8-byte little-endian words in turn (a final partial word is
/// zero-padded), and the finalizer folds every lane and the length into
/// both halves, so `s` and `s + '\0'` differ. Not HashBytes128: identities
/// and fingerprints keep that one.
inline Hash128 ChecksumBytes128(const void* data, size_t size) {
  using internal::ChecksumRound;
  using internal::LoadLe64;
  using internal::Rotl64;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t v[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                   0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
  size_t n = size;
  for (; n >= 32; p += 32, n -= 32) {
    v[0] = ChecksumRound(v[0], LoadLe64(p));
    v[1] = ChecksumRound(v[1], LoadLe64(p + 8));
    v[2] = ChecksumRound(v[2], LoadLe64(p + 16));
    v[3] = ChecksumRound(v[3], LoadLe64(p + 24));
  }
  size_t lane = 0;
  for (; n >= 8; p += 8, n -= 8, ++lane) {
    v[lane] = ChecksumRound(v[lane], LoadLe64(p));
  }
  if (n > 0) {
    unsigned char last[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    __builtin_memcpy(last, p, n);
    v[lane] = ChecksumRound(v[lane], LoadLe64(last));
  }
  const uint64_t len = static_cast<uint64_t>(size);
  // With the length and the other lanes fixed, each half is a bijection of
  // every lane: a changed lane changes both halves.
  const uint64_t lo = v[0] + Rotl64(v[1], 17) + Rotl64(v[2], 31) +
                      Rotl64(v[3], 47) + len * internal::kChecksumP1;
  const uint64_t hi = (v[0] ^ Rotl64(v[2], 13)) * internal::kChecksumP2 +
                      (v[1] ^ Rotl64(v[3], 41)) * internal::kChecksumP1 +
                      len;
  return Hash128{Mix64(lo), Mix64(hi)};
}

/// std::unordered_map hasher for Hash128 keys (already uniform; fold).
struct Hash128Hasher {
  size_t operator()(const Hash128& h) const {
    return static_cast<size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// A fixed total order on Hash128 values ((hi, lo) lexicographic). The
/// search strategies break cost ties on it so the reported best state is a
/// deterministic function of the explored set, independent of exploration
/// order and thread count.
inline bool Hash128Less(const Hash128& a, const Hash128& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

}  // namespace rdfviews

#endif  // RDFVIEWS_COMMON_HASH_H_
