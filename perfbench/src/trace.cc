#include <fstream>

#include "common.h"

namespace prefbench {
namespace {

// Time (ns) covered by the direct children of each span of one thread.
std::vector<int64_t> ChildNs(const std::vector<Span>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) child[s.parent] += s.end_ns - s.start_ns;
  }
  return child;
}

}  // namespace

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<double> out;
  for (const auto& buf : bufs_) {
    const auto& spans = buf->spans();
    std::vector<int64_t> child = ChildNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (name != spans[i].name) continue;
      int64_t self = spans[i].end_ns - spans[i].start_ns - child[i];
      out.push_back(static_cast<double>(self) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::ChildCoverage(const std::string& root) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<double> out;
  for (const auto& buf : bufs_) {
    const auto& spans = buf->spans();
    std::vector<int64_t> child = ChildNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (root != spans[i].name) continue;
      int64_t total = spans[i].end_ns - spans[i].start_ns;
      if (total > 0) {
        out.push_back(static_cast<double>(child[i]) /
                      static_cast<double>(total));
      }
    }
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> g(mu_);
  size_t n = 0;
  for (const auto& buf : bufs_) n += buf->spans().size();
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t t = 0; t < bufs_.size(); ++t) {
    const auto& spans = bufs_[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"thread\": " << t << ", \"index\": " << i << ", \"parent\": "
          << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
          << ", \"request\": " << s.request << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace prefbench
