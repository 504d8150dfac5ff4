#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <sstream>

namespace rb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

Windowed windowed(const std::vector<double>& done_s,
                  const std::vector<double>& latency_s, double tail_q,
                  std::size_t windows) {
  const std::size_t n = latency_s.size();
  windows = std::max<std::size_t>(1, std::min(windows, n));
  std::vector<double> rates, p50s, tails;
  double start = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = n * w / windows;
    const std::size_t hi = n * (w + 1) / windows;
    if (hi == lo) continue;
    const std::vector<double> slice(
        latency_s.begin() + static_cast<std::ptrdiff_t>(lo),
        latency_s.begin() + static_cast<std::ptrdiff_t>(hi));
    const double end = done_s[hi - 1];
    if (end > start) {
      rates.push_back(static_cast<double>(hi - lo) / (end - start));
    }
    p50s.push_back(median(slice));
    tails.push_back(quantile(slice, tail_q));
    start = end;
  }
  return {median(rates), median(p50s), median(tails)};
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", precision, value);
  return buf;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": "
        << fmt(metrics[i].value, 17) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void note(const std::string& line) { std::cout << "# " << line << '\n'; }

}  // namespace rb
