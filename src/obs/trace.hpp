/// \file
/// \brief Opt-in span recorder with Chrome trace-event export
/// (docs/OBSERVABILITY.md).
///
/// A `TraceRecorder` holds a fixed-capacity ring of completed spans: when
/// the ring is full the oldest span is overwritten, so a long-lived server
/// traces forever in bounded memory (the export notes how many spans were
/// dropped). Span names and categories are `const char*` because every
/// call site uses static string literals — the recorder stores the
/// pointers, never copies.
///
/// `write_chrome_trace()` emits the Trace Event Format's "X" (complete)
/// events, loadable in chrome://tracing or https://ui.perfetto.dev.
/// Timestamps are microseconds since the recorder's construction; `tid`
/// distinguishes lanes (the server uses worker ids for service spans and
/// connection fds for per-connection waits).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace mpx::obs {

/// One completed span on a lane.
struct TraceSpan {
  const char* name = "";      ///< static-lifetime label
  const char* category = "";  ///< static-lifetime category tag
  std::uint32_t tid = 0;      ///< lane id (worker or connection)
  std::uint64_t start_ns = 0; ///< offset from the recorder's epoch
  std::uint64_t duration_ns = 0;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

class TraceRecorder {
 public:
  /// Ring capacity when the caller does not choose one: 64Ki spans
  /// (~2.5 MiB), hours of tracing at serving rates before wrap.
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Nanoseconds since the recorder's construction (the span clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Append a completed span, overwriting the oldest when full.
  void record(const TraceSpan& span);

  /// Convenience: a span from `start_ns` (an earlier now_ns()) to now.
  void record_since(const char* name, const char* category,
                    std::uint32_t tid, std::uint64_t start_ns);

  /// Spans currently in the ring, oldest first.
  [[nodiscard]] std::vector<TraceSpan> spans() const;

  /// Lifetime counts: spans ever recorded / overwritten by wrap.
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Emit the ring as Chrome trace-event JSON. The stream overload
  /// always succeeds (modulo stream state); the path overload replaces the
  /// file atomically (support/atomic_file.hpp) and returns false when it
  /// cannot be written.
  void write_chrome_trace(std::ostream& out) const;
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceSpan> ring_;
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;  ///< lifetime record() count
};

}  // namespace mpx::obs
