// Shared pieces of the prefbench load generator: clocks, latency samples,
// the metric sink, and the span recorder of the traced run.
//
// Spans are recorded only by the benchmark, around its own calls into the
// engine's public functions; nothing inside the engine is instrumented.
// Each span holds its name, start, end, the span that was open on the same
// thread when it began (its parent), and the id of the request it belongs
// to. Spans stay in per-thread memory until the run ends.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace prefbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline int64_t NsSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty sample.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Ordered name -> (value, unit) list printed as the run's metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.9g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name;   ///< string literal
  uint32_t parent;    ///< index into the same thread's spans; kNoParent
  uint64_t request;   ///< request id shared by the request's spans
  int64_t start_ns;   ///< since the tracer's origin
  int64_t end_ns;
};

constexpr uint32_t kNoParent = 0xffffffffu;

/// One thread's span buffer. Not thread-safe: one per recording thread.
class TraceBuf {
 public:
  explicit TraceBuf(Clock::time_point origin) : origin_(origin) {}

  uint32_t Begin(const char* name, uint64_t request) {
    uint32_t parent = open_.empty() ? kNoParent : open_.back();
    int64_t now = NsSince(origin_, Clock::now());
    spans_.push_back({name, parent, request, now, now});
    open_.push_back(static_cast<uint32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(uint32_t index) {
    spans_[index].end_ns = NsSince(origin_, Clock::now());
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }
  double DurationUs(uint32_t index) const {
    return static_cast<double>(spans_[index].end_ns - spans_[index].start_ns) /
           1e3;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a no-op when `buf` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(TraceBuf* buf, const char* name, uint64_t request)
      : buf_(buf), index_(buf ? buf->Begin(name, request) : 0) {}
  ~ScopedSpan() { Finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent); returns its duration in µs.
  double Finish() {
    if (buf_ == nullptr) return 0.0;
    buf_->End(index_);
    double us = buf_->DurationUs(index_);
    buf_ = nullptr;
    return us;
  }

 private:
  TraceBuf* buf_;
  uint32_t index_;
};

/// Owns every thread's TraceBuf and summarizes or writes them at the end.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  TraceBuf* NewBuffer() {
    std::lock_guard<std::mutex> g(mu_);
    bufs_.push_back(std::make_unique<TraceBuf>(origin_));
    return bufs_.back().get();
  }

  /// Self time (µs) of every span named `name`: its duration minus the
  /// time its direct children cover.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  /// Per root span named `root`: the share of its duration its direct
  /// children cover (the stage decomposition's coverage).
  std::vector<double> ChildCoverage(const std::string& root) const;

  size_t span_count() const;

  /// Writes every span as one JSON line: thread, index, parent, request,
  /// name, start and end in ns since the tracer was created.
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuf>> bufs_;
};

}  // namespace prefbench
