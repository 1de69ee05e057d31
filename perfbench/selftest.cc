// Self-tests of the benchmark harness: the percentile rule, span self-time
// accounting, answer checks failing on a wrong expected answer, the result
// line carrying every metric with its unit, and host-speed normalisation. Exit code 0 = all pass.
// Run with `python3 perfbench/run.py --selftest`.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workload/generator.h"

namespace asterix {
namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  // The highest percentile that keeps at least ten samples beyond it.
  Check(HighestSupportedPercentile(19) == 0, "19 samples support nothing");
  Check(HighestSupportedPercentile(20) == 50, "20 samples support p50");
  Check(HighestSupportedPercentile(99) == 50, "99 samples support only p50");
  Check(HighestSupportedPercentile(100) == 90, "100 samples support p90");
  Check(HighestSupportedPercentile(199) == 90, "199 samples stop at p90");
  Check(HighestSupportedPercentile(200) == 95, "200 samples support p95");
  Check(HighestSupportedPercentile(1000) == 99, "1000 samples support p99");
  Check(HighestSupportedPercentile(10000) == 99.9, "10000 support p99.9");

  std::vector<double> v = Ramp(100);
  Check(Percentile(v, 50) == 50, "nearest-rank p50 of 1..100");
  Check(Percentile(v, 99) == 99, "nearest-rank p99 of 1..100");
  Check(Percentile(v, 100) == 100, "p100 is the maximum");
  Check(Percentile({}, 50) == 0, "empty input gives 0");
  double used = 0;
  Check(TailPercentile(v, 99, &used) == 90 && used == 90,
        "p99 of 100 samples is lowered to p90");
  v = Ramp(5000);
  Check(TailPercentile(v, 99, &used) == 4950 && used == 99,
        "p99 of 5000 samples is kept");
  Check(TailPercentile(Ramp(5), 99, &used) == 3 && used == 50,
        "too few samples fall back to the median");
}

void TestSelfTimes() {
  SpanLog log;
  int32_t root = log.Add("bench.op", 1, -1, 0, 1000);
  int32_t serve = log.Add("api.serve", 1, root, 100, 900);
  log.AddDerived(serve, {{"aql.parse", 0}, {"hyracks.execute", 0}});
  Check(log.spans().size() == 2, "zero-length phases add no span");
  log.Add("aql.parse", 1, serve, 200, 400);
  log.Add("hyracks.execute", 1, serve, 400, 700);
  log.Add("aql.ParseAql", 1, root, 900, 950);
  std::vector<int64_t> self = SelfTimesNs(log.spans());
  Check(self[0] == 1000 - 800 - 50, "root self excludes its children");
  Check(self[1] == 800 - 500, "serve self excludes its phases");
  Check(self[2] == 200 && self[3] == 300, "leaf self time is its duration");
  Check(std::fabs(AccountedRatio(log.spans(), "api.serve") - 500.0 / 800) <
            1e-12,
        "accounted ratio = covered share of the serve span");
  Check(AccountedRatio(log.spans(), "no.such") == 0, "no root gives 0");

  SpanLog overlap;
  int32_t p = overlap.Add("api.serve", 3, -1, 0, 1000);
  overlap.Add("a.x", 3, p, 100, 400);
  overlap.Add("b.y", 3, p, 300, 600);
  overlap.Add("c.z", 3, p, 900, 1200);  // clipped to the parent
  Check(SelfTimesNs(overlap.spans())[0] == 1000 - 500 - 100,
        "overlapping children count once");

  SpanLog derived;
  int32_t s = derived.Add("api.serve", 2, -1, 0, 5000);
  derived.AddDerived(s, {{"aql.parse", 1}, {"hyracks.execute", 10}});
  const auto& d = derived.spans();
  Check(d.size() == 3 && d[1].start_ns == 0 && d[1].end_ns == 1000 &&
            d[2].start_ns == 1000 && d[2].end_ns == 5000 && d[2].derived,
        "derived phases are laid back to back and clipped to the parent");

  SpanLog merged;
  merged.Append(log);
  merged.Append(derived);
  Check(merged.spans()[log.spans().size() + 1].parent ==
            static_cast<int32_t>(log.spans().size()),
        "appended logs keep their parent links");
}

void TestVerificationCatchesWrongAnswers() {
  Verifier v;
  Check(v.Expect(true, "right"), "a right answer passes");
  Check(!v.Expect(false, "wrong"), "a wrong answer fails");
  Check(v.failures() == 1 && v.messages().size() == 1,
        "the failure is counted and described");

  // A generated record differs from the same id under another seed.
  workload::Generator a(1), b(2);
  adm::Value ua = a.MakeUser(5), ub = b.MakeUser(5);
  Check(ua.Compare(workload::Generator(1).MakeUser(5)) == 0,
        "the same seed regenerates the same record");
  Check(ua.Compare(ub) != 0, "a record from another seed is a mismatch");

  std::map<int64_t, int64_t> counts = {{1, 5}, {2, 7}, {3, 7}, {4, 1}};
  Check(IsValidTopK({{2, 7}, {3, 7}}, counts, 2), "right top-2 passes");
  Check(IsValidTopK({{3, 7}, {2, 7}}, counts, 2), "ties in any order pass");
  Check(!IsValidTopK({{2, 7}, {1, 5}}, counts, 2), "a missed top key fails");
  Check(!IsValidTopK({{2, 8}, {3, 7}}, counts, 2), "a wrong count fails");
  Check(!IsValidTopK({{2, 7}, {2, 7}}, counts, 2), "a repeated key fails");
  Check(!IsValidTopK({{2, 7}}, counts, 2), "a short answer fails");

  Check(NearlyEqual(0.1 + 0.2, 0.3), "float sums in another order agree");
  Check(!NearlyEqual(100.0, 100.001), "a wrong average fails");
  Check(std::isnan(NumberOf(adm::Value::String("1"))),
        "a string is not a number");
}

// The gated metrics, with their units. Latency and CPU per op are gated
// host-speed-normalised; as measured, they ride in the env line with
// throughput and peak RSS, which follow host steal too closely to gate. The
// failed share is the result line's failed / attempted.
const std::vector<MetricSpec> kNamedEndToEnd = {{"setup_s", "s"},
                                                 {"norm_latency_p50_us", "us"},
                                                 {"norm_cpu_us_per_op", "us"},
                                                 {"space_amp", "x"}};

const std::vector<std::string> kNamedPerLayer = {
    "api.serve_us", "api.accounted_ratio", "api.latency_p95_us",
    "api.latency_p99_us", "api.query_us.vector_avg",
    "api.query_us.top_authors", "api.query_us.sel_join",
    "api.query_us.agg_index", "aql.parse_us", "algebricks.compile_us",
    "server.admission_wait_us", "server.cache_hit_ratio",
    "server.coalesced_ratio", "hyracks.execute_us", "hyracks.operator_cpu_us",
    "hyracks.input_wait_us", "hyracks.backpressure_wait_us",
    "hyracks.jobs_per_op", "hyracks.connector_tuples_per_op",
    "hyracks.network_tuples_per_op", "hyracks.vector_batches",
    "hyracks.kernel_us", "storage.point_lookup_us", "storage.cache_hit_ratio",
    "storage.cache_misses_per_op", "storage.bloom_negative_ratio",
    "storage.column_pages_read_per_op", "storage.column_pages_pruned_ratio",
    "storage.lsm_flushes", "storage.lsm_merges", "storage.write_amp",
    "storage.write_stall_us", "storage.compaction_wait_us",
    "txn.wal_appends_per_record", "txn.wal_bytes_per_record",
    "txn.wal_forced_flushes_per_record", "txn.lock_waits", "txn.lock_wait_us",
    "host.steal_ratio", "trace.overhead_ratio"};

void CheckRendered(const std::vector<MetricSpec>& catalogue) {
  MetricValues values;
  double x = 1.25;
  for (const auto& m : catalogue) values[m.name] = (x += 1);
  std::string line, error;
  Check(RenderResult(true, 10, 0, catalogue, values, &line, &error),
        "a full metric set renders: " + error);
  Check(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                   "\"metrics\": {",
                   0) == 0,
        "the result line starts with correct/attempted/failed/metrics");
  for (const auto& m : catalogue) {
    std::string want = "\"" + m.name + "\": {\"value\": " +
                       FormatNumber(values[m.name]) + ", \"unit\": \"" +
                       m.unit + "\"}";
    Check(line.find(want) != std::string::npos,
          m.name + " appears with its value and unit");
  }
  MetricValues missing = values;
  missing.erase(catalogue.front().name);
  Check(!RenderResult(true, 1, 0, catalogue, missing, &line, &error),
        "a missing metric is refused");
  MetricValues extra = values;
  extra["not.a.metric"] = 1;
  Check(!RenderResult(true, 1, 0, catalogue, extra, &line, &error),
        "an extra metric is refused");
}

void TestEveryMetricReported() {
  const auto& e2e = EndToEndMetrics();
  Check(e2e.size() == kNamedEndToEnd.size(), "end-to-end metric count");
  for (size_t i = 0; i < e2e.size() && i < kNamedEndToEnd.size(); ++i) {
    Check(e2e[i].name == kNamedEndToEnd[i].name &&
              e2e[i].unit == kNamedEndToEnd[i].unit,
          "end-to-end metric " + kNamedEndToEnd[i].name);
  }
  std::set<std::string> layer_names;
  for (const auto& m : PerLayerMetrics()) {
    Check(!m.unit.empty(), m.name + " has a unit");
    layer_names.insert(m.name);
  }
  Check(layer_names ==
            std::set<std::string>(kNamedPerLayer.begin(), kNamedPerLayer.end()),
        "per-layer catalogue matches the named metrics");
  CheckRendered(e2e);
  CheckRendered(PerLayerMetrics());
  Check(FormatNumber(0.1) == "0.10000000000000001",
        "numbers keep all their digits");
}

void TestHostSpeedNormalisation() {
  Check(NormaliseToNominal(100, 1500, 1500) == 100,
        "a nominal-speed run is reported as measured");
  Check(NearlyEqual(NormaliseToNominal(100, 3000, 1500), 50),
        "a run beside twice-as-slow reference work is halved");
  Check(NormaliseToNominal(100, 0, 1500) == 0, "no reference sample reads 0");
  ReferenceWork ref;
  ref.Start(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ref.Stop();
  Check(ref.Samples() > 3, "the background sampler runs reps until stopped");
  Check(ref.ComputeUs() > 0 && ref.HashUs() > 0 && ref.HandoffUs() > 0,
        "every reference part takes time");
  Check(NearlyEqual(ref.CpuPartsUs(), ref.ComputeUs() + ref.HashUs(), 0.5),
        "the CPU parts are the compute and hash parts");
  Check(ref.CpuPartsUs() < ref.TotalUs(), "the CPU parts are a share of a rep");
}

}  // namespace
}  // namespace perfbench
}  // namespace asterix

int main() {
  using namespace asterix::perfbench;
  TestPercentileRule();
  TestSelfTimes();
  TestVerificationCatchesWrongAnswers();
  TestEveryMetricReported();
  TestHostSpeedNormalisation();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
