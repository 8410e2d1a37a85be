#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t hash_result(std::span<const std::uint32_t> owner,
                          std::span<const std::uint32_t> settle) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto feed = [&h](std::span<const std::uint32_t> words) {
    for (const std::uint32_t w : words) {
      for (int b = 0; b < 4; ++b) {
        h ^= (w >> (8 * b)) & 0xFFu;
        h *= 0x100000001B3ull;
      }
    }
  };
  feed(owner);
  feed(settle);
  return h;
}

double SpanLog::self_time(int id) const {
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == id) covered += s.end - s.start;
  }
  return duration(id) - covered;
}

namespace {
std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}
}  // namespace

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << format_number(s.start * 1e6)
        << ",\"dur\":" << format_number((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error(path + ": trace write failed");
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + escape(k) + "\":";
}
Json& Json::num(const std::string& k, double value) {
  key(k);
  body_ += format_number(value);
  return *this;
}
Json& Json::integer(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}
Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"' + escape(value) + '"';
  return *this;
}
Json& Json::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}
Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}
Json& Json::nums(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += format_number(values[i]);
  }
  body_ += ']';
  return *this;
}

std::string Checks::messages_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + escape(messages[i]) + '"';
  }
  return out + "]";
}

}  // namespace perfbench
