#include "flex/shared_heap.hpp"

#include <algorithm>
#include <stdexcept>

namespace pisces::flex {

std::optional<std::size_t> SharedHeap::allocate(std::size_t bytes) {
  if (outage_) {
    ++failed_allocations_;
    return std::nullopt;
  }
  const std::size_t need = round_up(std::max<std::size_t>(bytes, 1));
  auto fit = by_size_.lower_bound({need, 0});  // smallest fit, lowest offset
  if (fit == by_size_.end()) {
    ++failed_allocations_;
    return std::nullopt;
  }
  const auto [size, offset] = *fit;
  by_size_.erase(fit);
  free_blocks_.erase(offset);
  if (size > need) insert_free(offset + need, size - need);
  allocated_[offset] = need;
  in_use_ += need;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  ++total_allocations_;
  return offset;
}

void SharedHeap::release(std::size_t offset) {
  auto it = allocated_.find(offset);
  if (it == allocated_.end()) {
    throw std::logic_error("SharedHeap::release: unknown block offset " +
                           std::to_string(offset));
  }
  std::size_t start = it->first;
  std::size_t size = it->second;
  allocated_.erase(it);
  in_use_ -= size;

  // Coalesce with the following free block.
  auto next = free_blocks_.lower_bound(start);
  if (next != free_blocks_.end() && start + size == next->first) {
    size += next->second;
    next = erase_free(next);
  }
  // Coalesce with the preceding free block.
  if (next != free_blocks_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == start) {
      start = prev->first;
      size += prev->second;
      erase_free(prev);
    }
  }
  insert_free(start, size);
}

std::size_t SharedHeap::block_size(std::size_t offset) const {
  auto it = allocated_.find(offset);
  return it == allocated_.end() ? 0 : it->second;
}

std::size_t SharedHeap::largest_free_block() const {
  return by_size_.empty() ? 0 : by_size_.rbegin()->first;
}

double SharedHeap::fragmentation() const {
  const std::size_t total_free = capacity_ - in_use_;
  if (total_free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_block()) /
                   static_cast<double>(total_free);
}

}  // namespace pisces::flex
