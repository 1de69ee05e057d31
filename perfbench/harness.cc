#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory_resource>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>

namespace asterix {
namespace perfbench {

// --- Percentiles -------------------------------------------------------------

namespace {
// ceil(p% of n), immune to 99.9 / 100 * 10000 landing just above 9990.
double NearestRank(double p, size_t n) {
  return std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
}
}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  // Nearest rank: the smallest value with at least p% of samples <= it.
  double rank = NearestRank(p, sorted.size());
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double HighestSupportedPercentile(size_t n) {
  static const double kCandidates[] = {99.9, 99, 95, 90, 50};
  for (double p : kCandidates) {
    // Samples strictly above the nearest-rank position of p.
    double rank = NearestRank(p, n);
    if (static_cast<double>(n) - rank >= 10) return p;
  }
  return 0;
}

double TailPercentile(const std::vector<double>& sorted, double p,
                      double* used) {
  double q = std::min(p, HighestSupportedPercentile(sorted.size()));
  if (q <= 0) q = 50;
  if (used != nullptr) *used = q;
  return Percentile(sorted, q);
}

// --- Spans -------------------------------------------------------------------

int32_t SpanLog::Add(std::string name, uint64_t op, int32_t parent,
                     int64_t start_ns, int64_t end_ns, bool derived) {
  spans_.push_back(Span{std::move(name), op, parent, start_ns, end_ns, derived});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::AddDerived(
    int32_t parent,
    const std::vector<std::pair<std::string, uint64_t>>& durations_us) {
  const Span p = spans_[static_cast<size_t>(parent)];  // Add() reallocates
  int64_t at = p.start_ns;
  for (const auto& [name, us] : durations_us) {
    if (us == 0 || at >= p.end_ns) continue;
    int64_t end = std::min(p.end_ns, at + static_cast<int64_t>(us) * 1000);
    Add(name, p.op, parent, at, end, /*derived=*/true);
    at = end;
  }
}

void SpanLog::Append(const SpanLog& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<size_t>(s.parent)];
      int64_t lo = std::max(s.start_ns, p.start_ns);
      int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

double AccountedRatio(const std::vector<Span>& spans, const std::string& root) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  // Nearest enclosing `root` span of every span (-1 when none).
  std::vector<int32_t> root_of(spans.size(), -1);
  double root_ns = 0, accounted_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == root) {
      root_of[i] = static_cast<int32_t>(i);
      root_ns += static_cast<double>(s.duration_ns());
      continue;
    }
    // Parents precede children in every log, so root_of[parent] is final.
    if (s.parent >= 0) root_of[i] = root_of[static_cast<size_t>(s.parent)];
    if (root_of[i] >= 0) accounted_ns += static_cast<double>(self[i]);
  }
  return root_ns > 0 ? accounted_ns / root_ns : 0;
}

std::string SpansToJson(const std::vector<Span>& spans, size_t limit) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::string out = "[";
  for (size_t i = 0; i < spans.size() && i < limit; ++i) {
    const Span& s = spans[i];
    if (i) out += ",\n";
    out += "{\"name\": ";
    AppendJsonString(&out, s.name);
    out += ", \"op\": " + std::to_string(s.op) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"self_us\": " + FormatNumber(static_cast<double>(self[i]) / 1e3) +
           ", \"derived\": " + (s.derived ? "true" : "false") + "}";
  }
  return out + "]";
}

// --- Answer checks -----------------------------------------------------------

bool Verifier::Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures_;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  return ok;
}

void Verifier::Merge(const Verifier& other) {
  failures_ += other.failures_;
  for (const auto& m : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(m);
  }
}

bool NearlyEqual(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

double NumberOf(const adm::Value& v) {
  if (v.IsNumeric()) return v.AsDouble();
  return std::nan("");
}

bool IsValidTopK(const std::vector<std::pair<int64_t, int64_t>>& rows,
                 const std::map<int64_t, int64_t>& expected_counts, size_t k) {
  std::vector<int64_t> all;
  all.reserve(expected_counts.size());
  for (const auto& [key, n] : expected_counts) all.push_back(n);
  std::sort(all.rbegin(), all.rend());
  if (all.size() > k) all.resize(k);
  if (rows.size() != all.size()) return false;
  std::set<int64_t> keys;
  std::vector<int64_t> got;
  for (const auto& [key, n] : rows) {
    auto it = expected_counts.find(key);
    if (it == expected_counts.end() || it->second != n) return false;
    if (!keys.insert(key).second) return false;
    got.push_back(n);
  }
  std::sort(got.rbegin(), got.rend());
  return got == all;
}

// --- Resources ---------------------------------------------------------------

uint64_t ProcessCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000u +
           static_cast<uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

HostTicks HostTicks::Read() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!in || !std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already included in user/nice.
  uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealRatio(const HostTicks& begin, const HostTicks& end) {
  if (end.total <= begin.total) return 0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

// --- Host speed reference ----------------------------------------------------

namespace {
constexpr int kMixRounds = 150000, kMapKeys = 625, kHandoffs = 25;
constexpr size_t kArenaBytes = 4u << 20;

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 50);
}
}  // namespace

ReferenceWork::ReferenceWork() : arena_(kArenaBytes) {}

ReferenceWork::~ReferenceWork() { Stop(); }

void ReferenceWork::Start(double period_ms) {
  Stop();
  stop_.store(false);
  sampler_ = std::thread([this, period_ms] { Run(period_ms); });
}

void ReferenceWork::Stop() {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
}

void ReferenceWork::Run(double period_ms) {
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  // Round trips between two threads, as a request makes between a client
  // and the executor. The peer lives as long as the sampler.
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;  // 1: the peer's move; -1: the peer should exit
  std::thread peer([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return turn != 0; });
      if (turn < 0) return;
      turn = 0;
      cv.notify_one();
    }
  });
  for (uint64_t r = 0; !stop_.load(); ++r) {
    auto t0 = Clock::now();
    uint64_t x = r;
    for (int i = 0; i < kMixRounds; ++i) {  // splitmix64
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      sink_ += z ^ (z >> 31);
    }
    auto t1 = Clock::now();
    {
      // Nodes come from a buffer owned by this object, so the time does
      // not depend on the state of the process heap.
      std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size());
      std::pmr::unordered_map<std::pmr::string, int> map(&arena);
      map.reserve(kMapKeys);
      char key[32];
      for (int i = 0; i < 2 * kMapKeys; ++i) {
        int n = std::snprintf(key, sizeof(key), "key-%d", i * 7919);
        std::string_view k(key, static_cast<size_t>(n));
        if (i < kMapKeys) {
          map.emplace(k, i);
        } else {
          auto it = map.find(std::pmr::string(k, &arena));
          if (it != map.end()) sink_ += static_cast<uint64_t>(it->second);
        }
      }
    }
    auto t2 = Clock::now();
    {
      std::unique_lock<std::mutex> lock(mu);
      for (int i = 0; i < kHandoffs; ++i) {
        turn = 1;
        cv.notify_one();
        cv.wait(lock, [&] { return turn == 0; });
      }
    }
    auto t3 = Clock::now();
    compute_us_.push_back(us(t0, t1));
    hash_us_.push_back(us(t1, t2));
    handoff_us_.push_back(us(t2, t3));
    cpu_parts_us_.push_back(us(t0, t2));
    total_us_.push_back(us(t0, t3));
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(period_ms));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    turn = -1;
  }
  cv.notify_one();
  peer.join();
}

double ReferenceWork::ComputeUs() const { return MedianOf(compute_us_); }
double ReferenceWork::HashUs() const { return MedianOf(hash_us_); }
double ReferenceWork::HandoffUs() const { return MedianOf(handoff_us_); }
double ReferenceWork::TotalUs() const { return MedianOf(total_us_); }
double ReferenceWork::CpuPartsUs() const { return MedianOf(cpu_parts_us_); }

double NormaliseToNominal(double measured, double reference_us,
                          double nominal_us) {
  return reference_us > 0 ? measured * nominal_us / reference_us : 0;
}

// --- Metrics and the result line -------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"norm_latency_p50_us", "us"},
      {"norm_cpu_us_per_op", "us"},
      {"space_amp", "x"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"api.serve_us", "us"},
      {"api.accounted_ratio", "ratio"},
      {"api.latency_p95_us", "us"},
      {"api.latency_p99_us", "us"},
      {"api.query_us.vector_avg", "us"},
      {"api.query_us.top_authors", "us"},
      {"api.query_us.sel_join", "us"},
      {"api.query_us.agg_index", "us"},
      {"aql.parse_us", "us"},
      {"algebricks.compile_us", "us"},
      {"server.admission_wait_us", "us"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.coalesced_ratio", "ratio"},
      {"hyracks.execute_us", "us"},
      {"hyracks.operator_cpu_us", "us"},
      {"hyracks.input_wait_us", "us"},
      {"hyracks.backpressure_wait_us", "us"},
      {"hyracks.jobs_per_op", "count/op"},
      {"hyracks.connector_tuples_per_op", "count/op"},
      {"hyracks.network_tuples_per_op", "count/op"},
      {"hyracks.vector_batches", "count/op"},
      {"hyracks.kernel_us", "us"},
      {"storage.point_lookup_us", "us"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.cache_misses_per_op", "count/op"},
      {"storage.bloom_negative_ratio", "ratio"},
      {"storage.column_pages_read_per_op", "count/op"},
      {"storage.column_pages_pruned_ratio", "ratio"},
      {"storage.lsm_flushes", "count"},
      {"storage.lsm_merges", "count"},
      {"storage.write_amp", "x"},
      {"storage.write_stall_us", "us"},
      {"storage.compaction_wait_us", "us"},
      {"txn.wal_appends_per_record", "count/record"},
      {"txn.wal_bytes_per_record", "B/record"},
      {"txn.wal_forced_flushes_per_record", "count/record"},
      {"txn.lock_waits", "count"},
      {"txn.lock_wait_us", "us"},
      {"host.steal_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

bool RenderResult(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<MetricSpec>& catalogue,
                  const MetricValues& values, std::string* line,
                  std::string* error) {
  std::set<std::string> known;
  for (const auto& m : catalogue) known.insert(m.name);
  for (const auto& [name, v] : values) {
    if (!known.count(name)) {
      *error = "metric outside the catalogue: " + name;
      return false;
    }
  }
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& m : catalogue) {
    auto it = values.find(m.name);
    if (it == values.end()) {
      *error = "metric missing: " + m.name;
      return false;
    }
    if (!first) out += ", ";
    first = false;
    AppendJsonString(&out, m.name);
    out += ": {\"value\": " + FormatNumber(it->second) + ", \"unit\": ";
    AppendJsonString(&out, m.unit);
    out += "}";
  }
  *line = out + "}}";
  return true;
}

}  // namespace perfbench
}  // namespace asterix
