// Metric collection and the result line every benchmark run ends with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Metric names are [A-Za-z0-9_.-]+ starting with a letter or digit, at most
// 64 characters; units are [A-Za-z0-9_/%.-]+, at most 16.
bool valid_metric_name(const std::string& name);
bool valid_unit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  // Records a check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  // Records a metric; an invalid name, unit or value makes the run
  // incorrect instead.
  void add(const std::string& name, double value, const std::string& unit);

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
