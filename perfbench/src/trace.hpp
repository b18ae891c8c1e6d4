// The benchmark's own spans around each public library call, kept in memory
// and written out once at the end of a traced run as Chrome trace-event JSON
// (loads in Perfetto or chrome://tracing). Single caller thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list; -1 for an op root
  std::int64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// All spans opened until the next begin_op carry this op id.
  void begin_op(std::int64_t op) { op_ = op; }

  int open(const std::string& name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, op_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id` and returns its duration in seconds (0 when off).
  double close(int id) {
    if (!on_ || id < 0) return 0.0;
    Span& s = spans_[id];
    s.end_ns = now_ns();
    while (!stack_.empty() && stack_.back() != id) stack_.pop_back();
    if (!stack_.empty()) stack_.pop_back();
    const double secs = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    layer_s_[s.name] += secs;
    return secs;
  }

  /// Counts recorded at the same span boundaries (bytes read, items, ...).
  void count(const std::string& name, double v) {
    if (on_) counts_[name] += v;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Total seconds per span name.
  const std::map<std::string, double>& layer_seconds() const { return layer_s_; }
  const std::map<std::string, double>& counts() const { return counts_; }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns - t0) / 1000.0
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
          << ", \"args\": {\"op\": " << s.op << ", \"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
    }
    out << "\n]}\n";
  }

 private:
  bool on_;
  std::int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> layer_s_;
  std::map<std::string, double> counts_;
};

/// RAII span; a no-op when the tracer is off.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
