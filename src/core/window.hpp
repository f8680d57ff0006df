#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/ids.hpp"

namespace pisces::rt {

/// A rectangular subregion of a 2-D array: [row0, row0+rows) x [col0, col0+cols).
struct Rect {
  int row0 = 0;
  int col0 = 0;
  int rows = 0;
  int cols = 0;

  friend constexpr auto operator<=>(const Rect&, const Rect&) = default;

  [[nodiscard]] constexpr bool valid() const {
    return row0 >= 0 && col0 >= 0 && rows > 0 && cols > 0;
  }
  [[nodiscard]] constexpr std::size_t elements() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }
  [[nodiscard]] constexpr std::size_t bytes() const { return elements() * 8; }

  /// True if `inner` lies entirely within this rectangle. Far edges are
  /// summed in 64 bits, so a rectangle that ends past INT_MAX is outside.
  [[nodiscard]] constexpr bool contains(const Rect& inner) const {
    return inner.row0 >= row0 && inner.col0 >= col0 &&
           std::int64_t{inner.row0} + inner.rows <= std::int64_t{row0} + rows &&
           std::int64_t{inner.col0} + inner.cols <= std::int64_t{col0} + cols;
  }
  /// True if the two rectangles share at least one element. Far edges are
  /// summed in 64 bits, as in contains().
  [[nodiscard]] constexpr bool overlaps(const Rect& o) const {
    return row0 < std::int64_t{o.row0} + o.rows && o.row0 < std::int64_t{row0} + rows &&
           col0 < std::int64_t{o.col0} + o.cols && o.col0 < std::int64_t{col0} + cols;
  }

  /// Far edges are summed in 64 bits, as in contains().
  [[nodiscard]] std::string str() const {
    return "[" + std::to_string(row0) + ":" + std::to_string(std::int64_t{row0} + rows) +
           "," + std::to_string(col0) + ":" + std::to_string(std::int64_t{col0} + cols) +
           ")";
  }
};

/// The paper's WINDOW type (Section 8): "a type of generalized pointer that
/// points to a rectangular subregion of an array that is 'owned' by another
/// task. ... The window value contains the taskid of the owner, the address
/// of the array, and a descriptor for the subarray."
///
/// Windows are plain values: storable in variables, passable in messages,
/// and shrinkable to smaller subarrays without touching the data. The owner
/// may be a user task (local array) or a file controller (array on disk).
struct Window {
  TaskId owner{};
  std::uint32_t array = 0;  ///< array id in the owner's registry
  Rect rect{};              ///< visible subregion, in array coordinates
  int array_rows = 0;       ///< full array shape, for validation
  int array_cols = 0;

  friend constexpr auto operator<=>(const Window&, const Window&) = default;

  [[nodiscard]] constexpr bool valid() const { return owner.valid() && rect.valid(); }
  [[nodiscard]] std::size_t elements() const { return rect.elements(); }
  [[nodiscard]] std::size_t bytes() const { return rect.bytes(); }
  [[nodiscard]] bool is_file_window() const {
    return owner.slot == kFileControllerSlot;
  }

  /// "Another task may also 'shrink' the window to point to a smaller
  /// subarray." `sub` is given relative to this window's origin. It is
  /// checked against the window's own extent before the origins are added,
  /// and the new origin is summed in 64 bits, so a window near INT_MAX is
  /// refused rather than wrapped.
  [[nodiscard]] Window shrink(const Rect& sub) const {
    if (!sub.valid()) throw std::invalid_argument("shrink: empty subrectangle");
    const std::int64_t row = std::int64_t{rect.row0} + sub.row0;
    const std::int64_t col = std::int64_t{rect.col0} + sub.col0;
    constexpr std::int64_t kMax = std::numeric_limits<int>::max();
    if (!Rect{0, 0, rect.rows, rect.cols}.contains(sub) || row > kMax || col > kMax) {
      throw std::out_of_range("shrink: subrectangle " + sub.str() +
                              " exceeds window " + rect.str());
    }
    Window w = *this;
    w.rect = Rect{static_cast<int>(row), static_cast<int>(col), sub.rows, sub.cols};
    return w;
  }

  [[nodiscard]] std::string str() const {
    return "window{owner=" + owner.str() + ", array=" + std::to_string(array) +
           ", " + rect.str() + "}";
  }
};

}  // namespace pisces::rt
