// Helpers of the repository benchmark (perfbench.cc): order statistics,
// process CPU and memory accounting, metric-name validation, and the
// in-memory span recorder behind the traced mode. Header-only so the
// helper tests link nothing but this file.
#ifndef REVNIC_PERFBENCH_BENCH_STATS_H_
#define REVNIC_PERFBENCH_BENCH_STATS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace revnic::perfbench {

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Geometric mean of positive values; 0 when the sample is empty or holds a
// non-positive value (a per-driver cost of 0 means the driver never ran).
inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) {
      return 0.0;
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// User+system CPU seconds of this process and of its waited-for children
// (the host C compiler runs as a child), read together so an interval can
// charge both.
struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
};

inline double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

inline CpuTimes ReadCpuTimes() {
  CpuTimes t;
  rusage self{};
  rusage children{};
  if (getrusage(RUSAGE_SELF, &self) == 0) {
    t.self_s = TimevalSeconds(self.ru_utime) + TimevalSeconds(self.ru_stime);
  }
  if (getrusage(RUSAGE_CHILDREN, &children) == 0) {
    t.children_s = TimevalSeconds(children.ru_utime) + TimevalSeconds(children.ru_stime);
  }
  return t;
}

// CPU seconds spent between two readings, children included.
inline double CpuSecondsBetween(const CpuTimes& begin, const CpuTimes& end) {
  return (end.self_s - begin.self_s) + (end.children_s - begin.children_s);
}

// Peak resident set of this process so far, in MiB (Linux reports KiB).
inline double PeakRssMb() {
  rusage self{};
  if (getrusage(RUSAGE_SELF, &self) != 0) {
    return 0.0;
  }
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

// Metric names: 1-64 characters of letters, digits, '_', '.', '-',
// starting with a letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

// Units: 1-16 characters of letters, digits, '_', '/', '%', '.', '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

// One recorded span. `layer` is the text of `name` before its first '.'.
struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  std::string name;
  int64_t start_ns = 0;  // since the recorder's epoch
  int64_t end_ns = 0;

  std::string layer() const { return name.substr(0, name.find('.')); }
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

// Spans kept in memory and written at exit. A disabled recorder records
// nothing, so the untraced run pays one branch per call site. Spans nest by
// scope and are recorded from one thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled).
  int Begin(std::string name) {
    if (!enabled_) {
      return -1;
    }
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.name = std::move(name);
    s.start_ns = Now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = Now();
    if (!open_.empty() && open_.back() == id) {
      open_.pop_back();
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name) : rec_(rec), id_(rec->Begin(std::move(name))) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// Self time of a span: its duration minus the part of that interval its
// direct children cover (overlapping children are counted once).
inline std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      int64_t lo = std::max(start, cursor);
      int64_t hi = std::min(end, spans[i].end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) * 1e-9;
  }
  return self;
}

// Self seconds summed per layer.
inline std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans) {
  std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer()] += self[i];
  }
  return by_layer;
}

// Chrome trace-event JSON ("X" complete events, microseconds). Every event
// carries the run id and its parent span id. False when the file cannot be
// written.
inline bool WriteChromeTrace(const std::string& path, const std::string& run_id,
                             const std::vector<Span>& spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"run_id\": \"%s\"},\n",
          run_id.c_str());
  fprintf(f, " \"traceEvents\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    fprintf(f,
            "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, "
            "\"run_id\": \"%s\"}}",
            i == 0 ? "" : ",", s.name.c_str(), s.layer().c_str(),
            static_cast<double>(s.start_ns) * 1e-3,
            static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent, run_id.c_str());
  }
  fprintf(f, "\n]}\n");
  return fclose(f) == 0;
}

}  // namespace revnic::perfbench

#endif  // REVNIC_PERFBENCH_BENCH_STATS_H_
