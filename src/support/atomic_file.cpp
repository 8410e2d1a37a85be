#include "support/atomic_file.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <system_error>

namespace mpx {

void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write) {
  // A random suffix keeps concurrent writers of one path (threads or
  // processes) off each other's temp files.
  std::random_device entropy;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".tmp-%08x%08x", entropy(),
                entropy());
  const std::string tmp = path + suffix;
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("mpx: cannot open " + tmp);
      write(out);
      out.flush();
      if (!out) throw std::runtime_error("mpx: write to " + tmp + " failed");
    }
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

}  // namespace mpx
