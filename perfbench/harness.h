// Benchmark harness pieces that do not depend on a running instance: the
// percentile rule, the in-memory span log and its self-time accounting,
// answer checks, process/host resource samples and the result line. The
// workloads in perfbench.cc build on these; selftest.cc tests them.
#ifndef ASTERIX_PERFBENCH_HARNESS_H_
#define ASTERIX_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/value.h"

namespace asterix {
namespace perfbench {

// --- Percentiles -------------------------------------------------------------

/// Nearest-rank percentile (p in [0,100]) of `sorted`, which must be sorted
/// ascending. 0 when empty.
double Percentile(const std::vector<double>& sorted, double p);

/// The highest of the reported tail percentiles (50, 90, 95, 99, 99.9) that
/// still has at least ten samples beyond it out of `n`; 0 when even the
/// median lacks ten samples above it.
double HighestSupportedPercentile(size_t n);

/// Percentile p of `sorted`, lowered to HighestSupportedPercentile() when n
/// is too small for p (so a 40-sample run reports its p50 as its "p99"
/// rather than its maximum). Sets *used to the percentile taken.
double TailPercentile(const std::vector<double>& sorted, double p,
                      double* used);

// --- Spans -------------------------------------------------------------------

/// One timed interval recorded by the benchmark around a call into a layer.
/// `derived` spans are not timed by the harness: they lay out durations the
/// program returned (PhaseSpans) back to back inside their parent, in the
/// order the engine runs them.
struct Span {
  std::string name;   // "<layer>.<what>", e.g. "api.serve"
  uint64_t op = 0;    // client-unique operation id (client << 40 | seq)
  int32_t parent = -1;  // index into the same log, -1 = root
  int64_t start_ns = 0;  // steady_clock, relative to the run's epoch
  int64_t end_ns = 0;
  bool derived = false;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-client span buffer: appends only, no locking (each client thread
/// owns one; logs are merged after the threads join).
class SpanLog {
 public:
  int32_t Add(std::string name, uint64_t op, int32_t parent, int64_t start_ns,
              int64_t end_ns, bool derived = false);
  /// Lays `durations_us` (name, µs) back to back from `parent`'s start,
  /// clipped to its end. Zero durations add nothing.
  void AddDerived(int32_t parent,
                  const std::vector<std::pair<std::string, uint64_t>>& durations_us);
  void SetEnd(int32_t span, int64_t end_ns) {
    spans_[static_cast<size_t>(span)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Moves `other`'s spans in, re-basing its parent indices.
  void Append(const SpanLog& other);

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Share of the time inside spans named `root` that the spans below them
/// account for: the sum of the descendants' self times over the sum of the
/// root durations (1 - the roots' own self time share). 0 when no root.
double AccountedRatio(const std::vector<Span>& spans, const std::string& root);

/// The first `limit` spans as a JSON array, one object per span with its
/// self time (computed over all spans). Parents precede their children, so
/// every written span's parent is written too.
std::string SpansToJson(const std::vector<Span>& spans, size_t limit);

// --- Answer checks -----------------------------------------------------------

/// Collects verification failures; the first few messages are kept for the
/// report.
class Verifier {
 public:
  /// Records a failure when !ok; returns ok.
  bool Expect(bool ok, const std::string& what);
  uint64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }
  void Merge(const Verifier& other);

 private:
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// |a - b| within a relative tolerance (float sums in another order).
bool NearlyEqual(double a, double b, double rel = 1e-9);

/// Numeric value of an ADM int/double; NaN for anything else.
double NumberOf(const adm::Value& v);

/// True when `rows` is a valid top-k answer for `expected_counts` (key ->
/// count): every row's count is the key's true count, keys are distinct,
/// and the multiset of counts equals the k largest true counts. Ties among
/// equal counts may be broken either way. Rows are (key, count) pairs.
bool IsValidTopK(const std::vector<std::pair<int64_t, int64_t>>& rows,
                 const std::map<int64_t, int64_t>& expected_counts, size_t k);

// --- Resources ---------------------------------------------------------------

/// Process CPU (user + system) in µs, from getrusage.
uint64_t ProcessCpuUs();
/// Peak resident set (VmHWM) in MiB since start or the last ResetPeakRss().
double PeakRssMb();
/// Restarts the peak at the current resident set (Linux clear_refs).
void ResetPeakRss();

/// Aggregate CPU ticks from /proc/stat (all zero when unreadable).
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
  static HostTicks Read();
};
/// steal share of all ticks between two samples (0 when none elapsed).
double StealRatio(const HostTicks& begin, const HostTicks& end);

// --- Host speed reference ----------------------------------------------------

/// Fixed work that uses no engine code: integer mixing, string-keyed
/// hash-map building and thread hand-offs. The same host runs it at
/// different speeds at different times; timing it beside the workload gives
/// the factor that host-speed-normalised metrics divide out (see README.md).
class ReferenceWork {
 public:
  ReferenceWork();
  ~ReferenceWork();

  /// Runs one rep every `period_ms` on a background thread until Stop(), so
  /// the samples span a timed window. Read the medians after Stop().
  void Start(double period_ms);
  void Stop();

  /// Medians over every rep so far, in µs per rep.
  double ComputeUs() const;
  double HashUs() const;
  double HandoffUs() const;
  double TotalUs() const;
  /// The compute and hash parts of a rep: work a CPU does without waiting
  /// on another thread.
  double CpuPartsUs() const;
  size_t Samples() const { return total_us_.size(); }

 private:
  void Run(double period_ms);

  std::vector<std::byte> arena_;  // backs the hash-map part
  std::vector<double> compute_us_, hash_us_, handoff_us_, cpu_parts_us_,
      total_us_;
  uint64_t sink_ = 0;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

/// ReferenceWork::TotalUs() and CpuPartsUs() on the nominal host.
constexpr double kNominalReferenceUs = 1100;
constexpr double kNominalCpuPartsUs = 550;
/// A host-speed-normalised figure: what the run measured, scaled by how much
/// faster the reference work ran on the nominal host (`nominal_us`) than
/// beside this run (`reference_us`). 0 when there is no reference sample.
double NormaliseToNominal(double measured, double reference_us,
                          double nominal_us);

// --- Metrics and the result line -------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Every end-to-end metric (reported with --trace 0) and every per-layer
/// metric (--trace 1), in report order. BENCHMARK.json lists the same.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Name -> value. Values for names outside the catalogue are rejected when
/// the line is rendered.
using MetricValues = std::map<std::string, double>;

/// The result line: {"correct", "attempted", "failed", "metrics"} with every
/// metric of `catalogue`, each {"value", "unit"}. Returns false (and sets
/// *error) when a catalogue metric is missing or an extra one is present.
bool RenderResult(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<MetricSpec>& catalogue,
                  const MetricValues& values, std::string* line,
                  std::string* error);

/// Formats a double with all its significant digits.
std::string FormatNumber(double v);

/// Appends `s` as a JSON string literal.
void AppendJsonString(std::string* out, const std::string& s);

}  // namespace perfbench
}  // namespace asterix

#endif  // ASTERIX_PERFBENCH_HARNESS_H_
