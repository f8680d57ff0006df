// Tests of rt::Matrix, the REAL array windows point into, and of the
// rectangle copies the window service makes from it: every refusal keeps its
// exception type and exact text, and a refused rectangle leaves the array as
// it was.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "core/matrix.hpp"
#include "core/window.hpp"
#include "fsim/file_store.hpp"

namespace pisces::rt {
namespace {

TEST(MatrixValue, NegativeShapeThrowsBeforeSizing) {
  // Checked before anything is sized: otherwise (-1, 2) throws length_error
  // from std::vector, and (-2, -2) wraps to 4 elements and allocates them.
  const std::pair<int, int> shapes[] = {{-1, 2}, {3, -2}, {-2, -2}, {-1, -1}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    try {
      Matrix m(rows, cols);
      ADD_FAILURE() << "made a " << m.rows() << "x" << m.cols() << " matrix";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "negative Matrix shape");
    }
  }
}

/// The message of the std::out_of_range `f` throws (any other exception
/// fails the test).
template <class F>
std::string out_of_range_message(F f) {
  try {
    (void)f();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "no exception";
}

TEST(MatrixValue, AtRefusesEachEdgeAndAddressesOneElement) {
  Matrix m(3, 4);
  const Matrix& cm = m;
  const struct {
    int r, c;
    const char* what;
  } outside[] = {
      {-1, 0, "Matrix index (-1,0) outside 3x4"},
      {3, 0, "Matrix index (3,0) outside 3x4"},
      {0, -1, "Matrix index (0,-1) outside 3x4"},
      {0, 4, "Matrix index (0,4) outside 3x4"},
  };
  for (const auto& o : outside) {
    SCOPED_TRACE(o.what);
    EXPECT_EQ(out_of_range_message([&] { return m.at(o.r, o.c); }), o.what);
    EXPECT_EQ(out_of_range_message([&] { return cm.at(o.r, o.c); }), o.what);
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) m.at(r, c) = 10.0 * r + c;
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(&cm.at(r, c), &m.at(r, c));
      EXPECT_EQ(m.data()[static_cast<std::size_t>(4 * r + c)], 10.0 * r + c);
    }
  }
}

TEST(RectCopy, RectangleEndingPastIntMaxIsRefused) {
  // Summed in int, row0 + rows would wrap negative and pass for inside.
  const int big = std::numeric_limits<int>::max();
  Matrix m(4, 4);
  EXPECT_EQ(out_of_range_message([&] { return fsim::copy_rect(m, Rect{big, 0, 1, 1}); }),
            "copy_rect: [2147483647:2147483648,0:1) outside 4x4");
  EXPECT_EQ(out_of_range_message([&] { return fsim::copy_rect(m, Rect{0, big, 1, 1}); }),
            "copy_rect: [0:1,2147483647:2147483648) outside 4x4");
  const auto paste = [&](const Rect& r) {
    fsim::paste_rect(m, r, Matrix(1, 1, 7.0));
    return 0;
  };
  EXPECT_EQ(out_of_range_message([&] { return paste(Rect{big, 0, 1, 1}); }),
            "paste_rect: [2147483647:2147483648,0:1) outside 4x4");
  EXPECT_EQ(out_of_range_message([&] { return paste(Rect{0, big, 1, 1}); }),
            "paste_rect: [0:1,2147483647:2147483648) outside 4x4");
  EXPECT_EQ(m, Matrix(4, 4));
}

TEST(RectOverlap, RectangleEndingPastIntMaxIsComparedIn64Bits) {
  // Summed in int, the far edge of a rectangle at INT_MAX would wrap (a
  // signed overflow, which UBSan reports).
  const int big = std::numeric_limits<int>::max();
  const Rect small{0, 0, 4, 4};
  const Rect last_row{big, 0, 1, 1};
  const Rect last_col{0, big, 1, 1};
  const Rect corner{big, big, 1, 1};
  const Rect last_two_rows{big - 1, 0, 2, 1};
  EXPECT_FALSE(small.overlaps(last_row));
  EXPECT_FALSE(last_row.overlaps(small));
  EXPECT_FALSE(small.overlaps(last_col));
  EXPECT_FALSE(last_col.overlaps(small));
  EXPECT_TRUE(corner.overlaps(corner));
  EXPECT_TRUE(last_two_rows.overlaps(last_row));
}

TEST(WindowShrink, SubrectangleOutsideAWindowNearIntMaxIsRefused) {
  // The window's own extent is checked before the origins are added, so
  // nothing is summed past INT_MAX.
  const int big = std::numeric_limits<int>::max();
  Window w;
  w.rect = Rect{big - 1, 0, 1, 1};
  EXPECT_EQ(out_of_range_message([&] { return w.shrink(Rect{5, 0, 1, 1}); }),
            "shrink: subrectangle [5:6,0:1) exceeds window [2147483646:2147483647,0:1)");
  w.rect = Rect{0, big - 1, 1, 1};
  EXPECT_EQ(out_of_range_message([&] { return w.shrink(Rect{0, 5, 1, 1}); }),
            "shrink: subrectangle [0:1,5:6) exceeds window [0:1,2147483646:2147483647)");
  // A window that itself ends past INT_MAX: the new origin would not fit.
  w.rect = Rect{big - 1, 0, 5, 1};
  EXPECT_EQ(out_of_range_message([&] { return w.shrink(Rect{3, 0, 1, 1}); }),
            "shrink: subrectangle [3:4,0:1) exceeds window [2147483646:2147483651,0:1)");
  EXPECT_EQ(w.shrink(Rect{1, 0, 1, 1}).rect, (Rect{big, 0, 1, 1}));
}

}  // namespace
}  // namespace pisces::rt
