// Minimal binary PPM (P6) image writer — no external image dependencies.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "viz/palette.hpp"

namespace mpx::viz {

/// Row-major RGB image.
class Image {
 public:
  Image(std::size_t width, std::size_t height, Rgb fill = {0, 0, 0});

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t height() const { return height_; }

  [[nodiscard]] Rgb& at(std::size_t x, std::size_t y);
  [[nodiscard]] const Rgb& at(std::size_t x, std::size_t y) const;

  /// Serialize as binary PPM (P6).
  void write_ppm(std::ostream& out) const;
  /// Replace the file atomically (support/atomic_file.hpp); throws
  /// std::runtime_error if it cannot be written.
  void save_ppm(const std::string& file_path) const;

 private:
  std::size_t width_;
  std::size_t height_;
  std::vector<Rgb> pixels_;
};

}  // namespace mpx::viz
