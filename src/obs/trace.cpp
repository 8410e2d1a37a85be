#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "support/atomic_file.hpp"

namespace mpx::obs {

TraceRecorder::TraceRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

std::uint64_t TraceRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceRecorder::record(const TraceSpan& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
  } else {
    ring_[recorded_ % capacity_] = span;
  }
  ++recorded_;
}

void TraceRecorder::record_since(const char* name, const char* category,
                                 std::uint32_t tid, std::uint64_t start_ns) {
  const std::uint64_t now = now_ns();
  record({name, category, tid, start_ns,
          now > start_ns ? now - start_ns : 0});
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (recorded_ <= capacity_) return ring_;
  // The ring has wrapped: the oldest surviving span sits at the next
  // overwrite position.
  const std::size_t head = recorded_ % capacity_;
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

std::uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ <= capacity_ ? 0 : recorded_ - capacity_;
}

namespace {

/// JSON string escape. Names are static identifiers today, but the
/// escaper keeps the output well-formed no matter what a future call
/// site passes.
void write_escaped(std::ostream& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

/// Microseconds with sub-microsecond precision, the Trace Event Format's
/// native unit, printed without ostream float-format state.
void write_micros(std::ostream& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

}  // namespace

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceSpan> all = spans();
  std::uint64_t total = 0;
  std::uint64_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    total = recorded_;
    lost = recorded_ <= capacity_ ? 0 : recorded_ - capacity_;
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : all) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"";
    write_escaped(out, span.name);
    out << "\",\"cat\":\"";
    write_escaped(out, span.category);
    out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid << ",\"ts\":";
    write_micros(out, span.start_ns);
    out << ",\"dur\":";
    write_micros(out, span.duration_ns);
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"recorded\":" << total << ",\"dropped\":" << lost << "}}\n";
}

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  try {
    write_file_atomically(path,
                          [&](std::ostream& out) { write_chrome_trace(out); });
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

}  // namespace mpx::obs
