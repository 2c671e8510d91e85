// Flat index structures for the reliable runtime's hot path.
//
// The runtime's exception sets (parked beats, remapped beats, offender and
// retired rows, per-row event counts) are tiny -- a handful of entries even
// in deep-undervolt soaks -- but they sit on the per-access path, where the
// previous std::unordered_map/std::unordered_set cost a hash probe (and a
// cache miss) per beat.  These flat structures make the common no-faults
// case one branch (`empty()`), membership a binary search over a dense
// array, and -- the piece hash tables cannot do at all -- give the range
// engine a cheap "is anything special in [lo, hi)?" interval probe so bulk
// requests split into long plain runs plus sparse exceptions.
//
// All operations are deterministic (sorted order, no hashing), which the
// twin-universe equivalence between the per-op and range calls relies on.

#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace hbmvolt::runtime {

/// Sorted unique vector of 64-bit keys.  O(log n) membership and interval
/// probes; O(n) insert/erase, which is fine for sets that grow by ones
/// during rare ladder actions.
class SortedKeySet {
 public:
  static constexpr std::uint64_t kNone = ~0ull;

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }

  /// Returns true when the key was newly inserted.
  bool insert(std::uint64_t key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return false;
    keys_.insert(it, key);
    return true;
  }

  /// Returns true when the key was present.
  bool erase(std::uint64_t key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return false;
    keys_.erase(it);
    return true;
  }

  /// Smallest key in [lo, hi), or kNone.  The range engine's one-branch
  /// fast path when the set is empty.
  [[nodiscard]] std::uint64_t first_in_range(std::uint64_t lo,
                                             std::uint64_t hi) const noexcept {
    if (keys_.empty()) return kNone;
    auto it = std::lower_bound(keys_.begin(), keys_.end(), lo);
    if (it == keys_.end() || *it >= hi) return kNone;
    return *it;
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  void clear() noexcept { keys_.clear(); }

  /// Ascending iteration (already the deterministic order retirement
  /// wants; no copy-and-sort step needed).
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept {
    return keys_;
  }

 private:
  std::vector<std::uint64_t> keys_;
};

/// Sorted-vector map from row key to event count, replacing
/// unordered_map<uint64_t, unsigned>.  Iteration is ascending by key, so
/// offender promotion needs no sort-for-determinism pass.
class RowEventCounts {
 public:
  void add(std::uint64_t key, unsigned delta) {
    auto it = std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const auto& item, std::uint64_t k) { return item.first < k; });
    if (it != items_.end() && it->first == key) {
      it->second += delta;
      return;
    }
    items_.insert(it, {key, delta});
  }

  void erase(std::uint64_t key) {
    auto it = std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const auto& item, std::uint64_t k) { return item.first < k; });
    if (it != items_.end() && it->first == key) items_.erase(it);
  }

  [[nodiscard]] auto begin() const noexcept { return items_.begin(); }
  [[nodiscard]] auto end() const noexcept { return items_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  void clear() noexcept { items_.clear(); }

  bool operator==(const RowEventCounts&) const = default;

 private:
  std::vector<std::pair<std::uint64_t, unsigned>> items_;
};

/// Word-backed bit vector with run scans -- std::vector<bool> without the
/// proxy overhead, plus run() so the range engine walks live runs a word
/// at a time instead of a bit at a time.
class BitVec {
 public:
  void assign(std::uint64_t bits, bool value) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, value ? ~0ull : 0ull);
    trim_tail();
  }

  [[nodiscard]] bool get(std::uint64_t i) const noexcept {
    return (words_[i / 64] >> (i % 64)) & 1ull;
  }
  void set(std::uint64_t i) noexcept { words_[i / 64] |= 1ull << (i % 64); }
  /// Sets bits [lo, lo + n) a word at a time (lo + n <= size()).
  void set_range(std::uint64_t lo, std::uint64_t n) noexcept {
    if (n == 0) return;
    const std::uint64_t last = (lo + n - 1) / 64;
    const std::uint64_t head = ~0ull << (lo % 64);
    const std::uint64_t tail = ~0ull >> (63 - (lo + n - 1) % 64);
    std::uint64_t w = lo / 64;
    if (w == last) {
      words_[w] |= head & tail;
      return;
    }
    words_[w] |= head;
    while (++w < last) words_[w] = ~0ull;
    words_[last] |= tail;
  }
  void clear(std::uint64_t i) noexcept {
    words_[i / 64] &= ~(1ull << (i % 64));
  }
  void clear_all() noexcept {
    std::fill(words_.begin(), words_.end(), 0ull);
  }

  [[nodiscard]] std::uint64_t size() const noexcept { return bits_; }

  /// Length of the run of bits equal to `value` from `from`, at most
  /// `limit` (from + limit <= size()); reads only the words it covers.
  [[nodiscard]] std::uint64_t run(std::uint64_t from, bool value,
                                  std::uint64_t limit) const noexcept {
    std::uint64_t n = 0;
    while (n < limit) {
      const std::uint64_t i = from + n;
      const std::uint64_t differs =
          (value ? ~words_[i / 64] : words_[i / 64]) >> (i % 64);
      if (differs != 0) {
        return std::min<std::uint64_t>(
            limit, n + static_cast<unsigned>(__builtin_ctzll(differs)));
      }
      n += 64 - i % 64;
    }
    return limit;
  }

 private:
  void trim_tail() noexcept {
    // Keep bits past `bits_` zero so whole-word scans stay honest.
    if (bits_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ull << (bits_ % 64)) - 1;
    }
  }

  std::uint64_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hbmvolt::runtime
