// perfbench_selftest — checks the benchmark's own statistics and the
// repeatability of its traced counts. Exits non-zero on the first
// failure; run.py runs it after every build.

#include <cmath>
#include <cstdio>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median_and_quartiles() {
  expect(near(median({3, 1, 2}), 2.0), "odd median");
  expect(near(median({4, 1, 3, 2}), 2.5), "even median");
  // Reference values from Python: statistics.quantiles(values, n=4).
  const auto q8 = quartiles({3, 1, 4, 1, 5, 9, 2, 6});
  expect(q8 && near((*q8)[0], 1.25) && near((*q8)[1], 3.5) &&
             near((*q8)[2], 5.75),
         "quartiles of 8 values");
  const auto q2 = quartiles({1.0, 2.0});
  expect(q2 && near((*q2)[0], 0.75) && near((*q2)[1], 1.5) &&
             near((*q2)[2], 2.25),
         "quartiles of 2 values");
  const auto q5 = quartiles({10, 20, 30, 40, 50});
  expect(q5 && near((*q5)[0], 15.0) && near((*q5)[1], 30.0) &&
             near((*q5)[2], 45.0),
         "quartiles of 5 values");
  const auto q11 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  expect(q11 && near((*q11)[0], 3.0) && near((*q11)[2], 9.0),
         "quartiles of 11 values");
  expect(!quartiles({1.0}), "one value has no quartiles");
}

void test_tail_rule() {
  std::vector<double> values;
  for (int i = 1; i <= 199; ++i) {
    values.push_back(i);
  }
  // 199 samples: rank ceil(0.95 * 199) = 190 leaves 9 beyond — too few.
  expect(!tail_percentile(values, 0.95), "p95 of 199 samples refused");
  values.push_back(200);
  const auto p95 = tail_percentile(values, 0.95);
  expect(p95 && near(*p95, 190.0), "p95 of 200 samples");
  expect(!tail_percentile({}, 0.5), "percentile of nothing");
  const auto p50 = tail_percentile({5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12,
                                    13, 14, 15, 16, 17, 18, 19, 20},
                                   0.5);
  expect(p50 && near(*p50, 10.0), "p50 of 20 samples");
}

void test_self_time() {
  // root [0, 100] with children [10, 30] and [20, 50] (overlapping) and a
  // grandchild [60, 90] under child [55, 95].
  std::vector<Span> spans(5);
  spans[0] = {1, 0, "root", 0, 100, -1};
  spans[1] = {2, 1, "a", 10, 30, -1};
  spans[2] = {3, 1, "b", 20, 50, -1};
  spans[3] = {4, 1, "c", 55, 95, -1};
  spans[4] = {5, 4, "d", 60, 90, -1};
  const auto self = self_seconds(spans);
  expect(near(self[0], 20e-9), "root self time excludes the union of children");
  expect(near(self[1], 20e-9) && near(self[2], 30e-9), "leaf self time");
  expect(near(self[3], 10e-9), "nested self time");
  expect(near(self[4], 30e-9), "grandchild self time");
}

void test_traced_counts_repeat() {
  // Two traces from one seed must be identical, and two rounds of the
  // small lossy workload must do identical work.
  const WorkloadInput a = make_lossy_inputs(7, 2, 12);
  const WorkloadInput b = make_lossy_inputs(7, 2, 12);
  bool same_frames = a.frames.size() == b.frames.size();
  for (std::size_t i = 0; same_frames && i < a.frames.size(); ++i) {
    same_frames = a.frames[i].bytes == b.frames[i].bytes &&
                  a.frames[i].step == b.frames[i].step;
  }
  expect(same_frames, "one seed gives identical arrival sequences");
  expect(a.frames_retransmitted == b.frames_retransmitted &&
             a.frames_corrupt == b.frames_corrupt &&
             a.windows_conceal_expected == b.windows_conceal_expected,
         "one seed gives identical trace counts");

  ReceiverSetup setup = receiver_setup(Workload::kGatewayLossyWarm);
  setup.period_s = 0.01;
  const Oracle oracle;
  SpanRecorder spans;
  RoundOptions options;
  options.spans = &spans;
  const RoundResult r1 = run_round(a, setup, oracle, options);
  const RoundResult r2 = run_round(a, setup, oracle, options);
  expect(r1.failed == 0 && r2.failed == 0, "small lossy rounds pass checks");
  expect(r1.windows_concealed == r2.windows_concealed &&
             r1.frames_corrupt == r2.frames_corrupt &&
             r1.iterations_total == r2.iterations_total && r1.prd == r2.prd,
         "two traced rounds give identical counts");
  expect(r1.windows_concealed == a.windows_conceal_expected,
         "concealments match the trace");
  expect(!spans.spans().empty(), "traced rounds record spans");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_rule();
  test_self_time();
  test_traced_counts_repeat();
  if (failures == 0) {
    std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
