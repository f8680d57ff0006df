#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace pisces::flex {

/// The message-passing area of shared memory (paper Section 11): "a heap
/// with explicit allocation/deallocation as messages are sent and accepted."
///
/// Allocation is exact best fit: the smallest free block that fits, the
/// lowest offset among equal sizes. The heap is two address-ordered flat
/// lists, one of free blocks and one of live blocks. `allocate` scans the
/// free list, O(free blocks), and splits the block it picks in place;
/// `release` finds the live block by binary search, O(log live), then
/// shifts the lists in place to coalesce with free neighbours. The lists
/// stay short: over seed-1 perfbench runs the most free blocks seen at an
/// allocation were 1, 7 and 3 (pingpong, farm_reliable, heat2d) and the most
/// live blocks 1, 15 and 5. Once the live count has peaked, neither list
/// allocates again. Offsets model shared-memory addresses; the heap tracks
/// live/peak usage so the Section 13 storage experiment can show that
/// message storage is dynamically recovered and reused.
class SharedHeap {
 public:
  explicit SharedHeap(std::size_t capacity) : capacity_(capacity) {
    if (capacity > 0) free_.push_back({0, capacity});
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
  [[nodiscard]] std::size_t live_blocks() const { return live_.size(); }
  [[nodiscard]] std::size_t free_block_count() const { return free_.size(); }
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
  struct Block {
    std::size_t offset;
    std::size_t size;
  };

  std::size_t capacity_;
  std::vector<Block> free_;  ///< address order, no two adjacent
  std::vector<Block> live_;  ///< address order
  bool outage_ = false;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  std::uint64_t total_allocations_ = 0;
  std::uint64_t failed_allocations_ = 0;
};

}  // namespace pisces::flex
