// Tests of the benchmark's own helpers (bench_stats.h): order statistics,
// CPU-time accounting, metric-name validation and span self time. Plain
// asserts that survive NDEBUG, so the test needs no framework.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    fprintf(stderr, "bench_stats_test:%d: FAILED %s\n", line, what);
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double eps = 1e-9) { return std::fabs(a - b) <= eps; }

using namespace revnic::perfbench;

void TestOrderStatistics() {
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({5.0}) == 5.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5));
  // Linear interpolation, the same rule as numpy's default.
  EXPECT(Near(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6));
  EXPECT(Quantile({7.0, 1.0}, 0.0) == 1.0);
  EXPECT(Quantile({7.0, 1.0}, 1.0) == 7.0);
  // A slow outlier slice moves the median not at all.
  EXPECT(Median({100.0, 101.0, 99.0, 100.0, 5000.0}) == 100.0);
}

void TestGeoMean() {
  EXPECT(GeoMean({}) == 0.0);
  EXPECT(Near(GeoMean({2.0, 8.0}), 4.0));
  EXPECT(Near(GeoMean({3.0, 3.0, 3.0}), 3.0));
  // Scaling one driver by k scales the mean by k^(1/n): no driver dominates.
  EXPECT(Near(GeoMean({1.0, 1.0, 1.0, 16.0}), 2.0));
  // A driver that never ran poisons the figure instead of hiding.
  EXPECT(GeoMean({1.0, 0.0}) == 0.0);
  EXPECT(GeoMean({1.0, -2.0}) == 0.0);
}

void TestCpuAccounting() {
  CpuTimes a{1.0, 0.5};
  CpuTimes b{3.0, 0.75};
  EXPECT(Near(CpuSecondsBetween(a, b), 2.25));
  EXPECT(Near(TimevalSeconds(timeval{2, 500000}), 2.5));

  // Burning CPU in this process shows up; sleeping does not.
  CpuTimes t0 = ReadCpuTimes();
  auto start = std::chrono::steady_clock::now();
  volatile uint64_t sink = 0;
  while (std::chrono::steady_clock::now() - start < std::chrono::milliseconds(200)) {
    sink = sink + 1;
  }
  CpuTimes t1 = ReadCpuTimes();
  double busy = CpuSecondsBetween(t0, t1);
  EXPECT(busy > 0.1 && busy < 1.0);
  usleep(200000);
  double idle = CpuSecondsBetween(t1, ReadCpuTimes());
  EXPECT(idle < 0.05);

  // A waited-for child (how the host C compiler runs) is charged too.
  CpuTimes c0 = ReadCpuTimes();
  EXPECT(std::system("i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done") == 0);
  CpuTimes c1 = ReadCpuTimes();
  EXPECT(c1.children_s > c0.children_s);
  EXPECT(PeakRssMb() > 0.0);
}

void TestNames() {
  EXPECT(ValidMetricName("setup_s"));
  EXPECT(ValidMetricName("native.ns_per_frame_64.rtl8139"));
  EXPECT(ValidMetricName("synth.pass_s.merge-fallthrough"));
  EXPECT(ValidMetricName("0start"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName(".leading"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/name"));
  EXPECT(!ValidMetricName("quote\"d"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));

  EXPECT(ValidUnit("ns/frame"));
  EXPECT(ValidUnit("%"));
  EXPECT(ValidUnit("count"));
  EXPECT(!ValidUnit(""));
  EXPECT(!ValidUnit("per frame"));
  EXPECT(!ValidUnit(std::string(17, 's')));
}

void TestSelfTime() {
  // parent [0, 100) with children [10, 30) and [20, 50) (overlapping) and
  // [60, 70); grandchild [62, 65) under the third child.
  std::vector<Span> spans = {
      {0, -1, "core.pass", 0, 100},   {1, 0, "synth.a", 10, 30},
      {2, 0, "synth.b", 20, 50},      {3, 0, "native.c", 60, 70},
      {4, 3, "hw.d", 62, 65},
  };
  std::vector<double> self = SelfSeconds(spans);
  EXPECT(Near(self[0], 50e-9));  // 100 - |[10,50) u [60,70)|
  EXPECT(Near(self[1], 20e-9));
  EXPECT(Near(self[2], 30e-9));
  EXPECT(Near(self[3], 7e-9));
  EXPECT(Near(self[4], 3e-9));
  auto by_layer = SelfSecondsByLayer(spans);
  EXPECT(Near(by_layer["synth"], 50e-9));
  EXPECT(Near(by_layer["core"], 50e-9));

  SpanRecorder off(false);
  EXPECT(off.Begin("core.x") == -1);
  off.End(-1);
  EXPECT(off.spans().empty());

  SpanRecorder on(true);
  {
    ScopedSpan outer(&on, "core.outer");
    ScopedSpan inner(&on, "synth.inner");
  }
  EXPECT(on.spans().size() == 2);
  EXPECT(on.spans()[1].parent == 0);
  EXPECT(on.spans()[0].end_ns >= on.spans()[1].end_ns);
}

}  // namespace

int main() {
  TestOrderStatistics();
  TestGeoMean();
  TestCpuAccounting();
  TestNames();
  TestSelfTime();
  if (failures != 0) {
    fprintf(stderr, "bench_stats_test: %d failure(s)\n", failures);
    return 1;
  }
  printf("bench_stats_test: all passed\n");
  return 0;
}
