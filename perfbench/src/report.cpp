#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name[0];
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
        (c0 >= '0' && c0 <= '9'))) {
    return false;
  }
  for (const char c : name) {
    if (!name_char(c)) return false;
  }
  return true;
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!name_char(c) && c != '/' && c != '%') return false;
  }
  return true;
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name) || !valid_unit(unit) || !std::isfinite(value)) {
    char num[64];
    std::snprintf(num, sizeof(num), "%g", value);
    failures_.push_back("invalid metric " + name + " = " + num + " " + unit);
    return;
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
