#include "viz/ppm.hpp"

#include <ostream>

#include "support/assert.hpp"
#include "support/atomic_file.hpp"

namespace mpx::viz {

Image::Image(std::size_t width, std::size_t height, Rgb fill)
    : width_(width), height_(height), pixels_(width * height, fill) {
  MPX_EXPECTS(width > 0 && height > 0);
}

Rgb& Image::at(std::size_t x, std::size_t y) {
  MPX_EXPECTS(x < width_ && y < height_);
  return pixels_[y * width_ + x];
}

const Rgb& Image::at(std::size_t x, std::size_t y) const {
  MPX_EXPECTS(x < width_ && y < height_);
  return pixels_[y * width_ + x];
}

void Image::write_ppm(std::ostream& out) const {
  out << "P6\n" << width_ << ' ' << height_ << "\n255\n";
  static_assert(sizeof(Rgb) == 3, "Rgb must be tightly packed for P6 dumps");
  out.write(reinterpret_cast<const char*>(pixels_.data()),
            static_cast<std::streamsize>(pixels_.size() * sizeof(Rgb)));
}

void Image::save_ppm(const std::string& file_path) const {
  write_file_atomically(file_path, [&](std::ostream& out) { write_ppm(out); });
}

}  // namespace mpx::viz
