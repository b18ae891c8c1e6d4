// JSON output helpers shared by perfbench_driver's workloads and the service probe.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Full-precision number (values are printed as measured).
inline std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered {name: {"value": v, "unit": u}} object.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      s += (i ? ", " : "") + quoted(items_[i].name) + ": {\"value\": " + num(items_[i].value) +
           ", \"unit\": " + quoted(items_[i].unit) + "}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// VmHWM of a process ("self" or a pid), in MiB; 0 when unreadable.
inline double peak_rss_mib(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
