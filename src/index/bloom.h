// Bloom filter over 64-bit keys.
//
// Used for object-presence summaries: a worker keeps one per partition over
// the object ids of the rows it holds (WorkerIndexes::objects, core/worker.h),
// ships it on every heartbeat, and the coordinator prunes trajectory-query
// fan-out with it. Bloom filters admit
// false positives (harmless: an extra partition is queried) but
// never false negatives (required: pruning must be sound).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace stcn {

class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 64; `hashes` in [1, 16].
  explicit BloomFilter(std::size_t bits = 1024, int hashes = 4)
      : words_((bits + 63) / 64, 0), hashes_(hashes) {
    STCN_CHECK(bits > 0);
    STCN_CHECK(hashes >= 1 && hashes <= 16);
  }

  void insert(std::uint64_t key) {
    auto [h1, h2] = hash_pair(key);
    for (int i = 0; i < hashes_; ++i) {
      set_bit((h1 + static_cast<std::uint64_t>(i) * h2) % bit_count());
    }
    ++inserted_;
  }

  [[nodiscard]] bool may_contain(std::uint64_t key) const {
    auto [h1, h2] = hash_pair(key);
    for (int i = 0; i < hashes_; ++i) {
      if (!get_bit((h1 + static_cast<std::uint64_t>(i) * h2) % bit_count())) {
        return false;
      }
    }
    return true;
  }

  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    inserted_ = 0;
  }

  /// Unions `other` into this filter (must have identical geometry).
  void merge(const BloomFilter& other) {
    STCN_CHECK(words_.size() == other.words_.size());
    STCN_CHECK(hashes_ == other.hashes_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
    inserted_ += other.inserted_;
  }

  [[nodiscard]] std::size_t bit_count() const { return words_.size() * 64; }
  [[nodiscard]] std::uint64_t inserted() const { return inserted_; }
  [[nodiscard]] double fill_ratio() const {
    std::size_t set = 0;
    for (std::uint64_t w : words_) set += static_cast<std::size_t>(__builtin_popcountll(w));
    return static_cast<double>(set) / static_cast<double>(bit_count());
  }

  void serialize_to(BinaryWriter& w) const {
    w.write_u32(static_cast<std::uint32_t>(words_.size()));
    w.write_u8(static_cast<std::uint8_t>(hashes_));
    w.write_u64(inserted_);
    for (std::uint64_t word : words_) w.write_u64(word);
  }

  static BloomFilter deserialize_from(BinaryReader& r) {
    std::uint32_t word_count = r.read_u32();
    auto hashes = static_cast<int>(r.read_u8());
    std::uint64_t inserted = r.read_u64();
    if (r.failed() || word_count == 0 || word_count > (1u << 20) ||
        hashes < 1 || hashes > 16) {
      r.fail();  // the placeholder reads "absent" for every key
      return BloomFilter(64, 1);
    }
    BloomFilter f(static_cast<std::size_t>(word_count) * 64, hashes);
    f.inserted_ = inserted;
    for (std::uint32_t i = 0; i < word_count && !r.failed(); ++i) {
      f.words_[i] = r.read_u64();
    }
    return f;
  }

  friend bool operator==(const BloomFilter& a, const BloomFilter& b) {
    return a.words_ == b.words_ && a.hashes_ == b.hashes_;
  }

 private:
  static std::pair<std::uint64_t, std::uint64_t> hash_pair(
      std::uint64_t key) {
    // Two independent mixes (splitmix-style) drive double hashing.
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    std::uint64_t h1 = z ^ (z >> 31);
    std::uint64_t y = key * 0xc2b2ae3d27d4eb4fULL + 0x165667b19e3779f9ULL;
    y = (y ^ (y >> 29)) * 0xbf58476d1ce4e5b9ULL;
    std::uint64_t h2 = (y ^ (y >> 32)) | 1;  // odd: full cycle mod 2^k
    return {h1, h2};
  }

  void set_bit(std::size_t bit) {
    words_[bit / 64] |= (1ULL << (bit % 64));
  }
  [[nodiscard]] bool get_bit(std::size_t bit) const {
    return (words_[bit / 64] >> (bit % 64)) & 1;
  }

  std::vector<std::uint64_t> words_;
  int hashes_;
  std::uint64_t inserted_ = 0;
};

}  // namespace stcn
