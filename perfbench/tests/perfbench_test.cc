// Self-test of the benchmark's own statistics and reporting; run.py runs
// it after every build and refuses to benchmark if it fails.
#include <cstdio>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "perfbench_test: FAILED: %s\n", what);
  }
}

void TestSingleSample() {
  // One eval of 2321 ms: every percentile is that sample, not a bucket
  // edge above it.
  std::vector<double> one = {2321.0};
  Expect(perfbench::Percentile(&one, 50) == 2321.0, "single sample p50");
  Expect(perfbench::Percentile(&one, 99) == 2321.0, "single sample p99");
  Expect(perfbench::Median({2321.0}) == 2321.0, "single sample median");
}

void TestNeverAboveMax() {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(100.0 + (i * 7919) % 257);
  double max = 0.0;
  for (double x : v) max = x > max ? x : max;
  for (double p : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    Expect(perfbench::Percentile(&v, p) <= max, "percentile <= max");
  }
  Expect(perfbench::Percentile(&v, 100) == max, "p100 == max");
}

void TestNearestRank() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  Expect(perfbench::Percentile(&v, 50) == 3.0, "p50 of 1..5");
  Expect(perfbench::Percentile(&v, 20) == 1.0, "p20 of 1..5");
  Expect(perfbench::Percentile(&v, 21) == 2.0, "p21 of 1..5");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(perfbench::Percentile(&hundred, 99) == 99.0, "p99 of 1..100");
  std::vector<double> empty;
  Expect(perfbench::Percentile(&empty, 50) == 0.0, "empty -> 0");
}

void TestFastQuartiles() {
  // Times take the 25th percentile, rates the 75th: the fast side.
  const std::vector<double> v = {8, 1, 7, 2, 6, 3, 5, 4};
  Expect(perfbench::FastTime(v) == 2.0, "fast time of 1..8");
  Expect(perfbench::FastRate(v) == 6.0, "fast rate of 1..8");
  // Three slow samples of five do not move the fast time.
  Expect(perfbench::FastTime({10, 11, 90, 95, 99}) == 11.0,
         "fast time ignores a slow majority");
  Expect(perfbench::FastTime({42}) == 42.0 && perfbench::FastRate({42}) == 42.0,
         "one sample is its own fast quartile");
}

void TestReport() {
  perfbench::Report r;
  Expect(!r.correct(), "nothing attempted is not correct");
  r.Attempt(3);
  r.Set("b", 2.5, "ms");
  r.Set("a", 0.1, "s");
  Expect(r.correct(), "clean report is correct");
  const std::string line = r.ResultLine({"a", "b"});
  Expect(line ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"a\": {\"value\": 0.10000000000000001, "
             "\"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}}",
         "result line format");
  r.Fail("deliberate failure from the self-test");
  Expect(!r.correct() && r.failed() == 1, "a failure marks the run");
}

void TestSpanBufferDrops() {
  perfbench::SpanLog log;
  perfbench::SpanBuffer* b = log.NewBuffer(2);
  Expect(b->Record("a", 0, 1, 1, 2) != 0, "first span kept");
  Expect(b->Record("b", 0, 1, 2, 3) != 0, "second span kept");
  Expect(b->Record("c", 0, 1, 3, 4) == 0, "third span dropped");
  Expect(log.recorded() == 2 && log.dropped() == 1, "span counts");
}

}  // namespace

int main() {
  TestSingleSample();
  TestNeverAboveMax();
  TestNearestRank();
  TestFastQuartiles();
  TestReport();
  TestSpanBufferDrops();
  if (g_failures == 0) std::printf("perfbench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
