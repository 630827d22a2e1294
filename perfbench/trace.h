#pragma once

// Span recorder for the traced invocation. Spans are opened around the
// benchmark's own calls into each module, kept in memory, and written out
// once when the benchmark ends. A disabled tracer records nothing, so the
// untraced invocation pays one branch per span site.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // relative to the tracer's origin
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span; -1 for a root span
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span whose parent is the innermost open span.
  [[nodiscard]] Scope span(std::string name) {
    if (!enabled_) return Scope(nullptr, -1);
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), 0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
    return Scope(this, index);
  }

  /// Writes every span plus, per span name, its count, total time and self
  /// time (duration minus the part covered by child spans).
  void write_json(std::ostream& out) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    struct Totals {
      std::size_t count = 0;
      std::int64_t total_ns = 0;
      std::int64_t self_ns = 0;
    };
    std::map<std::string, Totals> by_name;
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << (i ? ",\n" : "\n") << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << "}";
      auto& t = by_name[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
    out << "\n], \"by_name\": {";
    bool first = true;
    for (const auto& [name, t] : by_name) {
      out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": " << t.count
          << ", \"total_ms\": " << static_cast<double>(t.total_ns) / 1e6
          << ", \"self_ms\": " << static_cast<double>(t.self_ns) / 1e6 << "}";
      first = false;
    }
    out << "\n}}\n";
  }

 private:
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  // indices of the spans still open, innermost last
};

/// Runs `fn` inside a span called `name`; returns its wall time in ms,
/// measured whether or not the tracer is enabled.
template <class Fn>
double timed_ms(Tracer& tracer, std::string name, Fn&& fn) {
  const auto span = tracer.span(std::move(name));
  const auto start = Tracer::Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Tracer::Clock::now() - start).count();
}

}  // namespace perfbench
