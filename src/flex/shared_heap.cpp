#include "flex/shared_heap.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

namespace pisces::flex {

namespace {
/// First block at or after `offset` in an address-ordered list.
template <typename Blocks>
auto at_or_after(Blocks& blocks, std::size_t offset) {
  return std::lower_bound(
      blocks.begin(), blocks.end(), offset,
      [](const auto& b, std::size_t off) { return b.offset < off; });
}
}  // namespace

std::optional<std::size_t> SharedHeap::allocate(std::size_t bytes) {
  if (outage_) {
    ++failed_allocations_;
    return std::nullopt;
  }
  const std::size_t need = round_up(std::max<std::size_t>(bytes, 1));
  // Smallest block that fits, the first in address order among equal sizes.
  auto fit = free_.end();
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->size < need || (fit != free_.end() && it->size >= fit->size)) continue;
    fit = it;
    if (it->size == need) break;  // nothing fits closer
  }
  if (fit == free_.end()) {
    ++failed_allocations_;
    return std::nullopt;
  }
  const std::size_t offset = fit->offset;
  if (fit->size > need) {
    fit->offset += need;
    fit->size -= need;
  } else {
    free_.erase(fit);
  }
  live_.insert(at_or_after(live_, offset), Block{offset, need});
  // Free blocks are never adjacent, so there are at most live + 1 of them:
  // with room for that many, neither list grows once the live count has
  // peaked.
  if (free_.capacity() <= live_.capacity()) free_.reserve(live_.capacity() + 1);
  in_use_ += need;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  ++total_allocations_;
  return offset;
}

void SharedHeap::release(std::size_t offset) {
  auto it = at_or_after(live_, offset);
  if (it == live_.end() || it->offset != offset) {
    throw std::logic_error("SharedHeap::release: unknown block offset " +
                           std::to_string(offset));
  }
  const std::size_t size = it->size;
  live_.erase(it);
  in_use_ -= size;

  // Coalesce with the free blocks on either side, if they touch.
  auto next = at_or_after(free_, offset);
  const bool joins_next = next != free_.end() && offset + size == next->offset;
  const bool joins_prev = next != free_.begin() &&
                          std::prev(next)->offset + std::prev(next)->size == offset;
  if (joins_prev) {
    std::prev(next)->size += size + (joins_next ? next->size : 0);
    if (joins_next) free_.erase(next);
  } else if (joins_next) {
    next->offset = offset;
    next->size += size;
  } else {
    free_.insert(next, Block{offset, size});
  }
}

std::size_t SharedHeap::block_size(std::size_t offset) const {
  auto it = at_or_after(live_, offset);
  return it == live_.end() || it->offset != offset ? 0 : it->size;
}

std::size_t SharedHeap::largest_free_block() const {
  std::size_t largest = 0;
  for (const Block& b : free_) largest = std::max(largest, b.size);
  return largest;
}

double SharedHeap::fragmentation() const {
  const std::size_t total_free = capacity_ - in_use_;
  if (total_free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_block()) /
                   static_cast<double>(total_free);
}

}  // namespace pisces::flex
