#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

namespace pisces::flex {

/// The message-passing area of shared memory (paper Section 11): "a heap
/// with explicit allocation/deallocation as messages are sent and accepted."
///
/// Allocation is exact best fit: free blocks are kept ordered by (size,
/// offset), so one lower_bound finds the smallest block that fits, lowest
/// offset on ties. The address-ordered map of the same free blocks lets
/// adjacent ones coalesce on release. Offsets model shared-memory
/// addresses; the heap tracks live/peak usage so the Section 13 storage
/// experiment can show that message storage is dynamically recovered and
/// reused.
class SharedHeap {
 public:
  explicit SharedHeap(std::size_t capacity) : capacity_(capacity) {
    if (capacity > 0) insert_free(0, capacity);
  }

  /// Allocate `bytes` (rounded up to the 8-byte allocation granule).
  /// Returns the block offset, or nullopt when no free block fits (or an
  /// injected outage is active).
  std::optional<std::size_t> allocate(std::size_t bytes);

  /// Fault injection: while an outage is active every allocate() fails (and
  /// counts as a failed allocation); releases still succeed, so storage
  /// drains but cannot grow.
  void set_outage(bool on) { outage_ = on; }
  [[nodiscard]] bool outage() const { return outage_; }

  /// Release a block previously returned by allocate(). The offset must be
  /// exact; releasing an unknown offset throws std::logic_error.
  void release(std::size_t offset);

  /// Size in bytes of the live block at `offset` (0 if unknown).
  [[nodiscard]] std::size_t block_size(std::size_t offset) const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t peak_in_use() const { return peak_in_use_; }
  [[nodiscard]] std::size_t live_blocks() const { return allocated_.size(); }
  [[nodiscard]] std::size_t free_block_count() const { return free_blocks_.size(); }
  [[nodiscard]] std::size_t largest_free_block() const;
  [[nodiscard]] std::uint64_t total_allocations() const { return total_allocations_; }
  [[nodiscard]] std::uint64_t failed_allocations() const { return failed_allocations_; }

  /// External fragmentation: 1 - largest_free / total_free (0 when empty).
  [[nodiscard]] double fragmentation() const;

  static constexpr std::size_t kGranule = 8;
  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kGranule - 1) / kGranule * kGranule;
  }

 private:
  using FreeMap = std::map<std::size_t, std::size_t>;  ///< offset -> size

  void insert_free(std::size_t offset, std::size_t size) {
    by_size_.insert({size, offset});
    free_blocks_[offset] = size;
  }
  FreeMap::iterator erase_free(FreeMap::iterator it) {
    by_size_.erase({it->second, it->first});
    return free_blocks_.erase(it);
  }

  std::size_t capacity_;
  FreeMap free_blocks_;                                   ///< address order
  std::set<std::pair<std::size_t, std::size_t>> by_size_;  ///< (size, offset)
  std::map<std::size_t, std::size_t> allocated_;          ///< offset -> size
  bool outage_ = false;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  std::uint64_t total_allocations_ = 0;
  std::uint64_t failed_allocations_ = 0;
};

}  // namespace pisces::flex
