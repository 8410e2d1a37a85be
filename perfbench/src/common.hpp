// Shared pieces of the benchmark executable: command-line access, clocks,
// order statistics, result hashing, the in-memory span recorder, and a
// minimal JSON writer for the one-line reports run.py reads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// --- command line -----------------------------------------------------------

/// `--key value` pairs after the mode word.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --key, got " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string str_or(const std::string& key,
                                   const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key) const {
    return std::stod(str(key));
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }

 private:
  std::map<std::string, std::string> values_;
};

// --- time ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary, process-wide epoch.
inline double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

// --- statistics -----------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of `v`; sorts a copy. 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t h = s.size() / 2;
  return s.size() % 2 == 1 ? s[h] : 0.5 * (s[h - 1] + s[h]);
}

/// Samples strictly above the q-quantile: a tail is reported only when at
/// least ten samples lie beyond it.
inline std::size_t beyond(const std::vector<double>& v, double q) {
  const double cut = quantile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

// --- hashing ----------------------------------------------------------------------

/// FNV-1a-64 over the owner then settle arrays: the identity of one
/// decomposition result, compared across backends and passes.
std::uint64_t hash_result(std::span<const std::uint32_t> owner,
                          std::span<const std::uint32_t> settle);

/// SplitMix64 step: derives independent per-call seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- tracing ----------------------------------------------------------------------

/// One recorded interval: name, start, end, and the span that caused it
/// (-1 for roots). Times are now_s() seconds.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span log of the traced pass, written out once at the end.
/// Disabled recorders cost one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its id (or -1 when disabled).
  int open(const std::string& name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_s(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
  }
  /// Record an interval measured elsewhere (a request timed from its due
  /// time rather than from when the span was opened).
  void add(const std::string& name, double start, double end) {
    if (enabled_) spans_.push_back(Span{name, start, end, -1});
  }
  [[nodiscard]] double duration(int id) const {
    if (id < 0) return 0.0;
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  /// Duration of `id` minus the time its direct children cover.
  [[nodiscard]] double self_time(int id) const;
  /// Chrome trace-event JSON ("X" events, parent ids in args).
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// --- report -----------------------------------------------------------------------

/// Builds one JSON object line. Keys are emitted in insertion order.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, std::uint64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& raw(const std::string& key, const std::string& json);
  Json& nums(const std::string& key, const std::vector<double>& values);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Failure bookkeeping shared by every workload: operations attempted,
/// operations that failed or returned a wrong answer, and the first few
/// messages explaining why.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void fail(const std::string& why) {
    ++failed;
    if (messages.size() < 8) messages.push_back(why);
  }
  [[nodiscard]] std::string messages_json() const;
};

}  // namespace perfbench
