#include "fsim/file_store.hpp"

#include <algorithm>

namespace pisces::fsim {

rt::Matrix copy_rect(const rt::Matrix& src, const rt::Rect& r) {
  if (!r.valid() || !rt::Rect{0, 0, src.rows(), src.cols()}.contains(r)) {
    throw std::out_of_range("copy_rect: " + r.str() + " outside " +
                            std::to_string(src.rows()) + "x" +
                            std::to_string(src.cols()));
  }
  rt::Matrix out(r.rows, r.cols);
  auto to = out.data().begin();
  for (int i = r.row0; i < r.row0 + r.rows; ++i) {
    const auto row = src.data().begin() + static_cast<std::ptrdiff_t>(i) * src.cols() + r.col0;
    to = std::copy(row, row + r.cols, to);
  }
  return out;
}

void paste_rect(rt::Matrix& dst, const rt::Rect& r, const rt::Matrix& data) {
  if (data.rows() != r.rows || data.cols() != r.cols) {
    throw std::invalid_argument("paste_rect: data shape does not match rect");
  }
  if (!r.valid() || !rt::Rect{0, 0, dst.rows(), dst.cols()}.contains(r)) {
    throw std::out_of_range("paste_rect: " + r.str() + " outside " +
                            std::to_string(dst.rows()) + "x" +
                            std::to_string(dst.cols()));
  }
  auto from = data.data().begin();
  for (int i = r.row0; i < r.row0 + r.rows; ++i, from += r.cols) {
    std::copy(from, from + r.cols,
              dst.data().begin() + static_cast<std::ptrdiff_t>(i) * dst.cols() + r.col0);
  }
}

rt::Matrix FileStore::read_rect(const std::string& name, const rt::Rect& r) const {
  return copy_rect(get(name), r);
}

void FileStore::write_rect(const std::string& name, const rt::Rect& r,
                           const rt::Matrix& data) {
  paste_rect(get(name), r, data);
}

}  // namespace pisces::fsim
