#pragma once

// Measurement helpers for the end-to-end benchmark: a wall and CPU
// stopwatch, order statistics, the process's peak resident memory, a
// BlockSource decorator that times every load from outside the library,
// and the metric report the benchmark prints.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <time.h>

#include "core/dataset.hpp"

namespace perfbench {

// Process CPU seconds: user plus system time of every thread, including
// threads that have already exited.  Time the host gives to other guests
// or processes is not in it, so on a shared host it drifts far less than
// wall time does.
inline double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// Wall and process CPU time since construction.
class Stopwatch {
 public:
  Stopwatch()
      : start_(std::chrono::steady_clock::now()), cpu_start_(process_cpu_s()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double cpu_seconds() const { return process_cpu_s() - cpu_start_; }

 private:
  std::chrono::steady_clock::time_point start_;
  double cpu_start_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Index of the sample at the (upper) median of a non-empty vector.
inline std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return order[order.size() / 2];
}

// The highest order statistic with at least ten samples above it, and
// the percentile it sits at.  Below 11 samples no such statistic exists;
// the maximum is returned and the percentile reads 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

inline Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    t.value = v.back();
    return t;
  }
  const std::size_t k = v.size() - 11;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  return t;
}

// Peak resident set (VmHWM) in MB since the last reset_peak_rss().
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Return freed heap to the kernel and restart the VmHWM high-water mark,
// so the peak covers only what runs afterwards (not set-up or oracle).
inline void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// Times every load() of the wrapped source: one duration and byte count
// per call, from whichever rank thread made it.  Failed loads are counted
// and rethrown unchanged.
class TimedSource final : public sf::BlockSource {
 public:
  explicit TimedSource(const sf::BlockSource& inner) : inner_(inner) {}

  sf::GridPtr load(sf::BlockId id) const override {
    const auto t0 = std::chrono::steady_clock::now();
    sf::GridPtr grid;
    try {
      grid = inner_.load(id);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++failed_;
      throw;
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const std::size_t bytes = grid->num_nodes() * sizeof(sf::Vec3);
    std::lock_guard<std::mutex> lock(mutex_);
    load_s_.push_back(s);
    bytes_ += bytes;
    return grid;
  }

  std::size_t block_bytes(sf::BlockId id) const override {
    return inner_.block_bytes(id);
  }
  int num_blocks() const override { return inner_.num_blocks(); }

  struct Totals {
    std::vector<double> load_s;
    std::uint64_t bytes = 0;
    std::uint64_t failed = 0;
  };

  // Everything recorded since the previous take().
  Totals take() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Totals t{std::move(load_s_), bytes_, failed_};
    load_s_.clear();
    bytes_ = 0;
    failed_ = 0;
    return t;
  }

 private:
  const sf::BlockSource& inner_;
  mutable std::mutex mutex_;
  mutable std::vector<double> load_s_;
  mutable std::uint64_t bytes_ = 0;
  mutable std::uint64_t failed_ = 0;
};

// Named metrics with units, printed one per line and then as the final
// JSON object that run.py reads.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  // Context lines (not metrics): printed before the metric lines.
  void note(const std::string& line) { notes_.push_back(line); }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
    for (const auto& [name, m] : metrics_) {
      std::printf("%-40s %.9g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char* sep = "";
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  name.c_str(), m.value, m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
