#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace pisces::rt {

/// A dense row-major 2-D array of REALs — the data type windows point into.
/// (Pisces Fortran arrays are REAL; doubles here.)
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0) : rows_(rows), cols_(cols) {
    if (rows < 0 || cols < 0) throw std::invalid_argument("negative Matrix shape");
    data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), fill);
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t bytes() const { return data_.size() * sizeof(double); }

  [[nodiscard]] double& at(int r, int c) {
    check(r, c);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const double& at(int r, int c) const {
    check(r, c);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  // at() runs once per stencil point, so its compares must inline into the
  // caller. Building the message inline would keep check() out of line, so
  // it lives in a cold function of its own.
  void check(int r, int c) const {
    if (r < 0 || r >= rows_ || c < 0 || c >= cols_) [[unlikely]] {
      throw_out_of_range(r, c);
    }
  }
  [[noreturn, gnu::cold, gnu::noinline]] void throw_out_of_range(int r, int c) const {
    throw std::out_of_range("Matrix index (" + std::to_string(r) + "," +
                            std::to_string(c) + ") outside " +
                            std::to_string(rows_) + "x" + std::to_string(cols_));
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pisces::rt
