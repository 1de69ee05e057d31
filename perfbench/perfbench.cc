// The repository benchmark: drives one AsterixInstance (2 nodes x 1
// partition, no simulated job start-up) through its public entry points
// with closed-loop client threads, checks every answer against the seeded
// generator, and prints one JSON result line. See README.md beside this
// file for the workloads, the metrics and the traced mode.
//
//   perfbench --workload lookup|ingest|analytics|mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-file PATH]
//   perfbench --list-metrics

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "adm/temporal.h"
#include "api/asterix.h"
#include "aql/parser.h"
#include "common/env.h"
#include "common/metrics.h"
#include "harness.h"
#include "workload/generator.h"

namespace asterix {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using adm::Value;

// Set-ups per run; setup_s is their median. Quick set-ups repeat until
// kSetupMinSeconds have passed so their median is as steady as a slow one's.
constexpr int kSetupMinRuns = 3, kSetupMaxRuns = 50;
constexpr double kSetupMinSeconds = 3;
constexpr size_t kMaxSpansWritten = 50000;
// The reference work runs once per period through the measured window.
constexpr double kReferencePeriodMs = 30;

int64_t MessageTs(int64_t id) {
  return workload::Generator::MessageEpochMillis() + id * 1000;
}
std::string Ts(int64_t millis) {
  return "datetime(\"" + adm::FormatDatetime(millis) + "\")";
}
double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

constexpr char kUserType[] = R"aql(
create type UserType as {
  id: int64, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string,
             country: string },
  friend-ids: {{ int64 }},
  employment: [ { organization-name: string, start-date: date,
                  end-date: date? } ]
}
)aql";

constexpr char kMessageType[] = R"aql(
create type MessageType as closed {
  message-id: int64, author-id: int64, timestamp: datetime,
  in-response-to: int64?, sender-location: point?,
  tags: {{ string }}, message: string
}
)aql";

// --- Per-client state ------------------------------------------------------------

/// Layer figures a client adds up in the traced window, from what Serve()
/// returns and from the isolated probes.
struct LayerSums {
  uint64_t serve_calls = 0, executed = 0, from_cache = 0, coalesced = 0;
  double serve_us = 0;
  double parse_us = 0, compile_us = 0, point_lookup_us = 0;
  uint64_t parse_n = 0, compile_n = 0, point_lookup_n = 0;
  double admission_us = 0, execute_us = 0;
  double operator_cpu_us = 0, input_wait_us = 0, backpressure_us = 0;
  double connector_tuples = 0, network_tuples = 0, batches = 0, kernel_us = 0;
  std::map<std::string, std::pair<double, uint64_t>> query_us;

  void Merge(const LayerSums& o) {
    serve_calls += o.serve_calls;
    executed += o.executed;
    from_cache += o.from_cache;
    coalesced += o.coalesced;
    serve_us += o.serve_us;
    parse_us += o.parse_us;
    compile_us += o.compile_us;
    point_lookup_us += o.point_lookup_us;
    parse_n += o.parse_n;
    compile_n += o.compile_n;
    point_lookup_n += o.point_lookup_n;
    admission_us += o.admission_us;
    execute_us += o.execute_us;
    operator_cpu_us += o.operator_cpu_us;
    input_wait_us += o.input_wait_us;
    backpressure_us += o.backpressure_us;
    connector_tuples += o.connector_tuples;
    network_tuples += o.network_tuples;
    batches += o.batches;
    kernel_us += o.kernel_us;
    for (const auto& [k, v] : o.query_us) {
      query_us[k].first += v.first;
      query_us[k].second += v.second;
    }
  }
};

/// What one operation reports back to the client loop.
struct OpResult {
  uint64_t units = 1;         // ops it counts as (records for ingest)
  uint64_t failed_units = 0;  // of those, failed or answered wrong
  uint64_t inserted = 0;      // records it inserted
  double latency_us = 0;      // time inside Serve() only
};

struct Client {
  int index = 0;
  std::mt19937_64 rng;
  uint64_t seq = 0;
  api::ServeOptions serve;
  Verifier verifier;
  LayerSums layers;
  SpanLog* spans = nullptr;  // set in the traced window only
  Clock::time_point epoch;
  uint64_t op = 0;      // current op id
  int32_t op_span = -1;  // current bench.op span

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
  }
  uint64_t Uniform(uint64_t n) { return rng() % n; }
  bool traced() const { return spans != nullptr; }
};

/// Serve() timed around the call. In the traced window it also records the
/// api.serve span, lays the returned phase durations inside it, and adds up
/// the returned job profile. Cached and coalesced replies carry no profile
/// of their own, so only executed requests feed the phase figures.
Result<api::ExecutionResult> TimedServe(api::AsterixInstance* db,
                                        const std::string& text, Client* c,
                                        OpResult* out,
                                        const char* query_name = nullptr) {
  auto t0 = Clock::now();
  Result<api::ExecutionResult> r = db->Serve(text, c->serve);
  auto t1 = Clock::now();
  double us = UsBetween(t0, t1);
  out->latency_us += us;
  if (!c->traced()) return r;
  LayerSums& l = c->layers;
  ++l.serve_calls;
  l.serve_us += us;
  if (query_name != nullptr) {
    l.query_us[query_name].first += us;
    ++l.query_us[query_name].second;
  }
  int32_t span = c->spans->Add("api.serve", c->op, c->op_span, c->Ns(t0),
                               c->Ns(t1));
  if (!r.ok()) return r;
  const api::ExecutionResult& res = r.value();
  if (res.from_cache) {
    ++l.from_cache;
  } else if (res.coalesced) {
    ++l.coalesced;
  } else if (res.stats.profile) {
    ++l.executed;
    const hyracks::JobProfile& prof = *res.stats.profile;
    const hyracks::PhaseSpans& ph = prof.phases;
    c->spans->AddDerived(span, {{"aql.parse", ph.parse_us},
                                {"algebricks.optimize", ph.optimize_us},
                                {"server.admission", ph.admission_us},
                                {"hyracks.execute", ph.execute_us},
                                {"hyracks.result", ph.result_us}});
    l.admission_us += static_cast<double>(ph.admission_us);
    l.execute_us += static_cast<double>(ph.execute_us);
    for (const hyracks::OperatorSpan& s : prof.spans) {
      l.operator_cpu_us += static_cast<double>(s.cpu_us);
      l.input_wait_us += static_cast<double>(s.input_wait_us);
      l.backpressure_us += static_cast<double>(s.output_wait_us);
      l.batches += static_cast<double>(s.batches);
      l.kernel_us += static_cast<double>(s.kernel_us);
    }
    l.connector_tuples += static_cast<double>(res.stats.connector_tuples);
    l.network_tuples += static_cast<double>(res.stats.network_tuples);
  }
  return r;
}

/// Isolated aql::ParseAql of the request text (traced window only).
/// Returns the parse time in µs.
double ProbeParse(const std::string& text, Client* c) {
  aql::ParserContext ctx;
  auto t0 = Clock::now();
  auto r = aql::ParseAql(text, &ctx);
  auto t1 = Clock::now();
  c->verifier.Expect(r.ok(), "parse probe failed: " + text.substr(0, 80));
  c->spans->Add("aql.ParseAql", c->op, c->op_span, c->Ns(t0), c->Ns(t1));
  double us = UsBetween(t0, t1);
  c->layers.parse_us += us;
  ++c->layers.parse_n;
  return us;
}

/// Isolated Explain() (parse + optimize + job compile, no run); the
/// compile figure is Explain minus the isolated parse of the same text.
void ProbeCompile(api::AsterixInstance* db, const std::string& text,
                  Client* c) {
  double parse_us = ProbeParse(text, c);
  auto t0 = Clock::now();
  auto r = db->Explain(text);
  auto t1 = Clock::now();
  c->verifier.Expect(r.ok(), "explain probe failed: " + text.substr(0, 80));
  c->spans->Add("api.Explain", c->op, c->op_span, c->Ns(t0), c->Ns(t1));
  c->layers.compile_us += UsBetween(t0, t1) - parse_us;
  ++c->layers.compile_n;
}

// --- Workloads -------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  /// Untimed ops before the first window, so caches and allocator arenas
  /// have grown to their steady size.
  virtual double WarmupSeconds() const { return 1; }
  /// True when a request's latency is mostly a chain of hand-offs between
  /// client, executor and partition threads, so host steal stretches it the
  /// way it stretches the reference work's hand-off part. Its latency is
  /// then normalised by the whole reference rep, else by the CPU parts.
  virtual bool HandoffBound() const { return true; }
  virtual void Configure(api::InstanceConfig*) const {}
  /// Harness-side data generation; not part of set-up time.
  virtual void Generate(uint32_t seed) = 0;
  /// DDL and bulk load on a freshly booted instance (timed with Boot and
  /// FlushAll as set-up).
  virtual Status Load(api::AsterixInstance* db) = 0;
  /// Called after the last set-up: frees what only Load() needed, so the
  /// timed windows run beside the compact expected answers alone.
  virtual void DropLoadData() {}
  virtual OpResult RunOp(api::AsterixInstance* db, Client* c) = 0;
  /// Checks after the last window (final counts, read-backs).
  virtual void FinalCheck(api::AsterixInstance*, Verifier*) {}
  /// Bytes of user data the instance holds (ADM text of every record).
  virtual uint64_t UserBytes() const = 0;
  virtual std::vector<std::string> Datasets() const = 0;
  /// Dataset sizes etc. for the run-environment record (JSON members).
  virtual std::string Describe() const = 0;
};

uint64_t TextBytes(const std::vector<Value>& records) {
  uint64_t n = 0;
  for (const Value& r : records) n += r.ToString().size();
  return n;
}

Status RunDdl(api::AsterixInstance* db, const std::string& ddl) {
  auto r = db->Execute(ddl);
  return r.ok() ? Status::OK() : r.status();
}

// lookup: 90 % primary-key lookups, 10 % 10-user secondary-index ranges.
class LookupWorkload : public Workload {
 public:
  static constexpr int64_t kUsers = 200000;
  int clients() const override { return 2; }
  void Generate(uint32_t seed) override {
    workload::Generator gen(seed);
    users_ = gen.MakeUsers(kUsers);
    for (const Value& u : users_) {
      text_.push_back(u.ToString());
      user_bytes_ += text_.back().size();
      since_.push_back(u.GetField("user-since").AsInt());
    }
  }
  void DropLoadData() override { std::vector<Value>().swap(users_); }
  Status Load(api::AsterixInstance* db) override {
    ASTERIX_RETURN_NOT_OK(RunDdl(
        db, std::string("create dataverse Bench; use dataverse Bench;") +
                kUserType +
                "create dataset Users(UserType) primary key id;"
                "create index uSinceIdx on Users(user-since);"));
    return db->FindDataset("Bench.Users")->LoadBulk(users_);
  }
  OpResult RunOp(api::AsterixInstance* db, Client* c) override {
    OpResult out;
    if (c->Uniform(10) != 0) {
      int64_t key = static_cast<int64_t>(c->Uniform(kUsers));
      std::string q = "for $u in dataset Bench.Users where $u.id = " +
                      std::to_string(key) + " return $u;";
      auto r = TimedServe(db, q, c, &out);
      bool ok = r.ok() && r.value().values.size() == 1 &&
                r.value().values[0].ToString() == text_[key];
      if (!c->verifier.Expect(ok, "lookup " + std::to_string(key))) {
        out.failed_units = 1;
      }
      if (c->traced()) {
        ProbeCompile(db, q, c);
        bool found = false;
        Value rec;
        auto t0 = Clock::now();
        Status st = db->FindDataset("Bench.Users")
                        ->PointLookup({Value::Int64(key)}, &found, &rec);
        auto t1 = Clock::now();
        c->spans->Add("storage.PointLookup", c->op, c->op_span, c->Ns(t0),
                      c->Ns(t1));
        c->layers.point_lookup_us += UsBetween(t0, t1);
        ++c->layers.point_lookup_n;
        c->verifier.Expect(st.ok() && found && rec.ToString() == text_[key],
                           "point lookup probe " + std::to_string(key));
      }
      return out;
    }
    int64_t lo = static_cast<int64_t>(c->Uniform(kUsers - 10));
    std::string q =
        "for $u in dataset Bench.Users where $u.user-since >= " +
        Ts(since_[lo]) + " and $u.user-since <= " + Ts(since_[lo + 9]) +
        " return $u.id;";
    auto r = TimedServe(db, q, c, &out);
    bool ok = r.ok() && r.value().values.size() == 10;
    if (ok) {
      std::vector<int64_t> ids;
      for (const Value& v : r.value().values) ids.push_back(v.AsInt());
      std::sort(ids.begin(), ids.end());
      for (int64_t i = 0; i < 10; ++i) ok = ok && ids[i] == lo + i;
    }
    if (!c->verifier.Expect(ok, "range from " + std::to_string(lo))) {
      out.failed_units = 1;
    }
    if (c->traced()) ProbeCompile(db, q, c);
    return out;
  }
  uint64_t UserBytes() const override { return user_bytes_; }
  std::vector<std::string> Datasets() const override { return {"Bench.Users"}; }
  std::string Describe() const override {
    return "\"users\": " + std::to_string(kUsers);
  }

 private:
  std::vector<Value> users_;
  std::vector<std::string> text_;  // ADM text of each user, by id
  std::vector<int64_t> since_;     // user-since of each user, by id
  uint64_t user_bytes_ = 0;
};

/// Shared by ingest and mixed: the paper-schema Messages dataset with its
/// timestamp and author-id indexes, preloaded, plus per-client generators
/// that make fresh messages above the preloaded ids.
class MessagesBase : public Workload {
 public:
  static constexpr int64_t kAuthors = 50000;
  static constexpr int64_t kIdStride = 100000000;  // id space per client

  explicit MessagesBase(int64_t preload) : preload_n_(preload) {}
  void Configure(api::InstanceConfig* config) const override {
    config->lsm.mem_budget_bytes = 1u << 20;
  }
  void Generate(uint32_t seed) override {
    workload::Generator gen(seed);
    preload_ = gen.MakeMessages(preload_n_, kAuthors);
    preload_bytes_ = TextBytes(preload_);
    for (int c = 0; c < clients(); ++c) {
      gens_.emplace_back(seed * 7919u + static_cast<uint32_t>(c) + 1);
      next_id_.push_back(preload_n_ + c * kIdStride);
    }
    acked_.assign(static_cast<size_t>(clients()), 0);
    statements_.assign(static_cast<size_t>(clients()), 0);
    acked_bytes_.assign(static_cast<size_t>(clients()), 0);
    samples_.resize(static_cast<size_t>(clients()));
  }
  Status Load(api::AsterixInstance* db) override {
    ASTERIX_RETURN_NOT_OK(RunDdl(
        db, std::string("create dataverse Bench; use dataverse Bench;") +
                kMessageType +
                "create dataset Messages(MessageType) primary key message-id;"
                "create index msTimestampIdx on Messages(timestamp);"
                "create index msAuthorIdx on Messages(author-id) type btree;"));
    return db->FindDataset("Bench.Messages")->LoadBulk(preload_);
  }
  void DropLoadData() override { std::vector<Value>().swap(preload_); }
  void FinalCheck(api::AsterixInstance* db, Verifier* v) override {
    uint64_t acked = 0;
    for (uint64_t n : acked_) acked += n;
    auto r = db->Execute("count(for $m in dataset Bench.Messages return $m);");
    uint64_t want = static_cast<uint64_t>(preload_n_) + acked;
    v->Expect(r.ok() && r.value().values.size() == 1 &&
                  static_cast<uint64_t>(r.value().values[0].AsInt()) == want,
              "final count != preload + acknowledged (" +
                  std::to_string(want) + ")");
    storage::PartitionedDataset* ds = db->FindDataset("Bench.Messages");
    for (const auto& per_client : samples_) {
      for (const Value& rec : per_client) {
        bool found = false;
        Value got;
        Status st = ds->PointLookup({rec.GetField("message-id")}, &found, &got);
        v->Expect(st.ok() && found && got.Compare(rec) == 0,
                  "acknowledged record " + rec.GetField("message-id").ToString() +
                      " did not read back intact");
      }
    }
  }
  uint64_t UserBytes() const override {
    uint64_t n = preload_bytes_;
    for (uint64_t b : acked_bytes_) n += b;
    return n;
  }
  std::vector<std::string> Datasets() const override {
    return {"Bench.Messages"};
  }

 protected:
  /// One insert statement of `n` fresh records through Serve(), counted as
  /// `units` ops; acknowledged records are booked for the final checks.
  OpResult InsertOp(api::AsterixInstance* db, Client* c, int n, uint64_t units) {
    Insert ins = MakeInsert(c->index, n);
    OpResult out;
    out.units = units;
    auto r = TimedServe(db, ins.text, c, &out);
    bool ok = r.ok() && r.value().values.size() == 1 &&
              r.value().values[0].AsInt() == n;
    if (c->verifier.Expect(ok, "insert failed" +
                                   (r.ok() ? std::string()
                                           : ": " + r.status().ToString()))) {
      Acknowledge(c->index, ins);
      out.inserted = static_cast<uint64_t>(n);
    } else {
      out.failed_units = units;
    }
    if (c->traced()) ProbeParse(ins.text, c);
    return out;
  }

 private:
  struct Insert {
    std::string text;  // the insert statement
    std::vector<Value> records;
    uint64_t record_bytes = 0;  // ADM text bytes of the records
  };
  /// `n` fresh messages for client c, as one insert statement.
  Insert MakeInsert(int c, int n) {
    const size_t ci = static_cast<size_t>(c);
    Insert ins;
    ins.text = "insert into dataset Bench.Messages ([";
    for (int i = 0; i < n; ++i) {
      ins.records.push_back(gens_[ci].MakeMessage(next_id_[ci]++, kAuthors));
      std::string rec = ins.records.back().ToString();
      ins.record_bytes += rec.size();
      if (i) ins.text += ", ";
      ins.text += rec;
    }
    ins.text += "]);";
    return ins;
  }
  /// Books an acknowledged insert; keeps the first record of every 64th
  /// statement for the read-back check.
  void Acknowledge(int c, const Insert& ins) {
    const size_t ci = static_cast<size_t>(c);
    if (statements_[ci]++ % 64 == 0) samples_[ci].push_back(ins.records[0]);
    acked_[ci] += ins.records.size();
    acked_bytes_[ci] += ins.record_bytes;
  }

 protected:
  const int64_t preload_n_;
  std::vector<Value> preload_;

 private:
  uint64_t preload_bytes_ = 0;
  // Indexed by client; each client touches only its own slot.
  std::vector<workload::Generator> gens_;
  std::vector<int64_t> next_id_;
  std::vector<uint64_t> acked_, acked_bytes_, statements_;
  std::vector<std::vector<Value>> samples_;
};

// ingest: 2 writers, 20-record insert statements (Table 4's batch size).
class IngestWorkload : public MessagesBase {
 public:
  static constexpr int kBatch = 20;
  IngestWorkload() : MessagesBase(20000) {}
  int clients() const override { return 2; }
  OpResult RunOp(api::AsterixInstance* db, Client* c) override {
    return InsertOp(db, c, kBatch, kBatch);
  }
  std::string Describe() const override {
    return "\"preload_messages\": " + std::to_string(preload_n_) +
           ", \"batch\": " + std::to_string(kBatch) +
           ", \"mem_budget_bytes\": 1048576";
  }
};

// mixed: 3 clients, 80 % canned dashboard reads, 20 % one-record inserts
// into the same dataset.
class MixedWorkload : public MessagesBase {
 public:
  MixedWorkload() : MessagesBase(5000) {}
  int clients() const override { return 3; }
  void Configure(api::InstanceConfig* config) const override {
    MessagesBase::Configure(config);
    config->cluster.cluster_memory_pool_bytes = 64ull << 20;
  }
  void Generate(uint32_t seed) override {
    MessagesBase::Generate(seed);
    // The canned windows lie inside the preloaded ids; inserted ids (and
    // their timestamps) are all above them, so these answers never change.
    for (int64_t id = kTopLo; id < kTopLo + kTopLen; ++id) {
      ++top_counts_[preload_[id].GetField("author-id").AsInt()];
    }
    double sum = 0;
    for (int64_t id = kAvgLo; id < kAvgLo + kAvgLen; ++id) {
      sum += static_cast<double>(
          preload_[id].GetField("message").AsString().size());
    }
    avg_len_ = sum / kAvgLen;
    reads_ = {
        "count(for $m in dataset Bench.Messages return $m);",
        "count(for $m in dataset Bench.Messages where $m.timestamp >= " +
            Ts(MessageTs(kCountLo)) + " and $m.timestamp < " +
            Ts(MessageTs(kCountLo + kCountLen)) + " return $m);",
        "for $m in dataset Bench.Messages where $m.timestamp >= " +
            Ts(MessageTs(kTopLo)) + " and $m.timestamp < " +
            Ts(MessageTs(kTopLo + kTopLen)) +
            " group by $aid := $m.author-id with $m"
            " let $cnt := count($m) order by $cnt desc limit 10"
            " return { \"author\": $aid, \"cnt\": $cnt };",
        "avg(for $m in dataset Bench.Messages where $m.timestamp >= " +
            Ts(MessageTs(kAvgLo)) + " and $m.timestamp < " +
            Ts(MessageTs(kAvgLo + kAvgLen)) +
            " return string-length($m.message));",
    };
  }
  OpResult RunOp(api::AsterixInstance* db, Client* c) override {
    OpResult out;
    if (c->Uniform(5) == 0) {
      inserts_started_.fetch_add(1);
      return InsertOp(db, c, 1, 1);
    }
    size_t which = c->Uniform(reads_.size());
    auto r = TimedServe(db, reads_[which], c, &out);
    // Read after the reply: every insert the read can have seen has
    // started by now.
    uint64_t max_rows = static_cast<uint64_t>(preload_n_) +
                        inserts_started_.load();
    bool ok = r.ok();
    if (ok) ok = CheckRead(which, r.value().values, max_rows);
    if (!c->verifier.Expect(ok, "canned read " + std::to_string(which))) {
      out.failed_units = 1;
    }
    if (c->traced()) ProbeCompile(db, reads_[which], c);
    return out;
  }
  std::string Describe() const override {
    return "\"preload_messages\": " + std::to_string(preload_n_) +
           ", \"canned_reads\": " + std::to_string(reads_.size()) +
           ", \"insert_share\": 0.2, \"mem_budget_bytes\": 1048576"
           ", \"cluster_memory_pool_bytes\": 67108864";
  }

 private:
  static constexpr int64_t kCountLo = 2000, kCountLen = 500;
  static constexpr int64_t kTopLo = 0, kTopLen = 500;
  static constexpr int64_t kAvgLo = 4000, kAvgLen = 500;

  bool CheckRead(size_t which, const std::vector<Value>& values,
                 uint64_t max_rows) const {
    switch (which) {
      case 0: {
        if (values.size() != 1) return false;
        uint64_t n = static_cast<uint64_t>(values[0].AsInt());
        return n >= static_cast<uint64_t>(preload_n_) && n <= max_rows;
      }
      case 1:
        return values.size() == 1 && values[0].AsInt() == kCountLen;
      case 2: {
        std::vector<std::pair<int64_t, int64_t>> rows;
        for (const Value& v : values) {
          rows.push_back({v.GetField("author").AsInt(),
                          v.GetField("cnt").AsInt()});
        }
        return IsValidTopK(rows, top_counts_, 10);
      }
      default:
        return values.size() == 1 && NearlyEqual(NumberOf(values[0]), avg_len_);
    }
  }

  std::vector<std::string> reads_;
  std::map<int64_t, int64_t> top_counts_;
  double avg_len_ = 0;
  std::atomic<uint64_t> inserts_started_{0};
};

// analytics: one client refreshing a four-query dashboard over a row-format
// Users and a column-format Messages dataset.
class AnalyticsWorkload : public Workload {
 public:
  static constexpr int64_t kUsers = 50000;
  static constexpr int64_t kMessages = 200000;
  int clients() const override { return 1; }
  // The process grows by 200-600 MB per refresh over its first refreshes
  // (1.8 GB to 3.8 GB, glibc per-thread arenas) and refreshes slow down
  // while it does: 2.5-2.8 s at first, 1.7-2.0 s once it levels off.
  double WarmupSeconds() const override { return 10; }
  // A refresh is seconds of operator work spread over the partitions.
  bool HandoffBound() const override { return false; }
  void Generate(uint32_t seed) override {
    workload::Generator gen(seed);
    users_ = gen.MakeUsers(kUsers);
    messages_ = gen.MakeMessages(kMessages, kUsers);
    user_bytes_ = TextBytes(users_) + TextBytes(messages_);
    by_author_.assign(kUsers, {});
    for (int64_t i = 0; i < kMessages; ++i) {
      const Value& m = messages_[i];
      author_.push_back(m.GetField("author-id").AsInt());
      const Value& reply = m.GetField("in-response-to");
      in_response_to_.push_back(reply.IsNumeric() ? reply.AsInt() : -1);
      msg_len_.push_back(
          static_cast<int64_t>(m.GetField("message").AsString().size()));
      by_author_[author_.back()].push_back(i);
      message_.push_back(m.GetField("message").AsString());
    }
    for (const Value& u : users_) {
      name_.push_back(u.GetField("name").AsString());
      since_.push_back(u.GetField("user-since").AsInt());
    }
  }
  void DropLoadData() override {
    std::vector<Value>().swap(users_);
    std::vector<Value>().swap(messages_);
  }
  Status Load(api::AsterixInstance* db) override {
    ASTERIX_RETURN_NOT_OK(RunDdl(
        db,
        std::string("create dataverse Bench; use dataverse Bench;") +
            kUserType + kMessageType +
            "create dataset Users(UserType) primary key id;"
            "create dataset Messages(MessageType) primary key message-id"
            " with { \"storage-format\": \"column\" };"
            "create index msTimestampIdx on Messages(timestamp);"
            "create index msAuthorIdx on Messages(author-id) type btree;"));
    ASTERIX_RETURN_NOT_OK(db->FindDataset("Bench.Users")->LoadBulk(users_));
    return db->FindDataset("Bench.Messages")->LoadBulk(messages_);
  }
  OpResult RunOp(api::AsterixInstance* db, Client* c) override {
    OpResult out;
    bool ok = VectorAvg(db, c, &out) && TopAuthors(db, c, &out) &&
              SelJoin(db, c, &out) && AggIndex(db, c, &out);
    if (!ok) out.failed_units = 1;
    return out;
  }
  uint64_t UserBytes() const override { return user_bytes_; }
  std::vector<std::string> Datasets() const override {
    return {"Bench.Users", "Bench.Messages"};
  }
  std::string Describe() const override {
    return "\"users\": " + std::to_string(kUsers) +
           ", \"messages\": " + std::to_string(kMessages) +
           ", \"messages_format\": \"column\"";
  }

 private:
  Result<api::ExecutionResult> Query(api::AsterixInstance* db, Client* c,
                                     OpResult* out, const std::string& q,
                                     const char* name) {
    auto r = TimedServe(db, q, c, out, name);
    if (c->traced()) ProbeCompile(db, q, c);
    return r;
  }

  // Vectorized filter + avg returning a projected field. The filter field
  // has no index, so the plan stays a columnar scan the optimizer lowers to
  // batch kernels (an indexed filter would fetch records one by one).
  bool VectorAvg(api::AsterixInstance* db, Client* c, OpResult* out) {
    // in-response-to takes 1,000 values; a random [lo, hi) of them keeps
    // repeats, and so result-cache hits, rare.
    int64_t lo = static_cast<int64_t>(c->Uniform(500));
    int64_t hi = lo + 1 + static_cast<int64_t>(c->Uniform(500));
    auto r = Query(db, c, out,
                   "avg(for $m in dataset Bench.Messages where "
                   "$m.in-response-to >= " +
                       std::to_string(lo) + " and $m.in-response-to < " +
                       std::to_string(hi) + " return $m.author-id);",
                   "vector_avg");
    double sum = 0;
    int64_t n = 0;
    for (int64_t i = 0; i < kMessages; ++i) {
      if (in_response_to_[i] >= lo && in_response_to_[i] < hi) {
        sum += static_cast<double>(author_[i]);
        ++n;
      }
    }
    return c->verifier.Expect(r.ok() && r.value().values.size() == 1 &&
                                  NearlyEqual(NumberOf(r.value().values[0]),
                                              sum / static_cast<double>(n)),
                              "vector_avg over in-response-to [" +
                                  std::to_string(lo) + ", " +
                                  std::to_string(hi) + ")");
  }

  // Top-10 authors over a 30k-message window, scanned: fetching 30k
  // column-format records through the timestamp index costs ~10x more.
  bool TopAuthors(api::AsterixInstance* db, Client* c, OpResult* out) {
    constexpr int64_t kWindow = 30000;
    int64_t lo = static_cast<int64_t>(c->Uniform(kMessages - kWindow));
    auto r = Query(db, c, out,
                   "for $m in dataset Bench.Messages where /*+ skip-index */ "
                   "$m.timestamp >= " +
                       Ts(MessageTs(lo)) + " and $m.timestamp < " +
                       Ts(MessageTs(lo + kWindow)) +
                       " group by $aid := $m.author-id with $m"
                       " let $cnt := count($m) order by $cnt desc limit 10"
                       " return { \"author\": $aid, \"cnt\": $cnt };",
                   "top_authors");
    std::map<int64_t, int64_t> counts;
    for (int64_t i = lo; i < lo + kWindow; ++i) ++counts[author_[i]];
    bool ok = r.ok();
    if (ok) {
      std::vector<std::pair<int64_t, int64_t>> rows;
      for (const Value& v : r.value().values) {
        rows.push_back({v.GetField("author").AsInt(), v.GetField("cnt").AsInt()});
      }
      ok = IsValidTopK(rows, counts, 10);
    }
    return c->verifier.Expect(ok, "top_authors from " + std::to_string(lo));
  }

  // Sel-Join: 300 users (a user-since range) joined with their messages.
  bool SelJoin(api::AsterixInstance* db, Client* c, OpResult* out) {
    constexpr int64_t kSel = 300;
    int64_t lo = static_cast<int64_t>(c->Uniform(kUsers - kSel));
    auto r = Query(
        db, c, out,
        "for $u in dataset Bench.Users for $m in dataset Bench.Messages"
        " where $m.author-id = $u.id and $u.user-since >= " +
            Ts(since_[lo]) + " and $u.user-since <= " +
            Ts(since_[lo + kSel - 1]) +
            " return { \"name\": $u.name, \"msg\": $m.message };",
        "sel_join");
    std::vector<std::string> want, got;
    for (int64_t u = lo; u < lo + kSel; ++u) {
      for (int64_t i : by_author_[u]) {
        want.push_back(name_[u] + '\x1f' + message_[i]);
      }
    }
    if (r.ok()) {
      for (const Value& v : r.value().values) {
        const Value& name = v.GetField("name");
        const Value& msg = v.GetField("msg");
        got.push_back(name.IsString() && msg.IsString()
                          ? name.AsString() + '\x1f' + msg.AsString()
                          : std::string());
      }
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    return c->verifier.Expect(r.ok() && got == want,
                              "sel_join from user " + std::to_string(lo));
  }

  // Agg (Sm) with index: avg message length over 3,000 messages found
  // through msTimestampIdx.
  bool AggIndex(api::AsterixInstance* db, Client* c, OpResult* out) {
    constexpr int64_t kWindow = 3000;
    int64_t lo = static_cast<int64_t>(c->Uniform(kMessages - kWindow));
    auto r = Query(db, c, out,
                   "avg(for $m in dataset Bench.Messages where $m.timestamp >= " +
                       Ts(MessageTs(lo)) + " and $m.timestamp < " +
                       Ts(MessageTs(lo + kWindow)) +
                       " return string-length($m.message));",
                   "agg_index");
    double sum = 0;
    for (int64_t i = lo; i < lo + kWindow; ++i) {
      sum += static_cast<double>(msg_len_[i]);
    }
    return c->verifier.Expect(r.ok() && r.value().values.size() == 1 &&
                                  NearlyEqual(NumberOf(r.value().values[0]),
                                              sum / kWindow),
                              "agg_index from " + std::to_string(lo));
  }

  std::vector<Value> users_, messages_;  // until DropLoadData()
  std::vector<std::string> name_, message_;  // user name / message text
  std::vector<int64_t> since_;               // user-since, by user id
  std::vector<int64_t> author_, msg_len_;
  std::vector<int64_t> in_response_to_;  // -1 when absent
  std::vector<std::vector<int64_t>> by_author_;
  uint64_t user_bytes_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "lookup") return std::make_unique<LookupWorkload>();
  if (name == "ingest") return std::make_unique<IngestWorkload>();
  if (name == "analytics") return std::make_unique<AnalyticsWorkload>();
  if (name == "mixed") return std::make_unique<MixedWorkload>();
  return nullptr;
}

// --- Timed windows ---------------------------------------------------------------

struct Window {
  uint64_t ops = 0, failed = 0, inserted = 0;
  double elapsed_s = 0;
  uint64_t cpu_us = 0;
  double steal_ratio = 0;
  std::vector<double> latency_us;  // sorted
  std::map<std::string, int64_t> deltas;  // metrics registry counter deltas
  LayerSums layers;
  SpanLog spans;
  Verifier verifier;

  double Delta(const std::string& name) const {
    auto it = deltas.find(name);
    return it == deltas.end() ? 0 : static_cast<double>(it->second);
  }
};

/// Runs every client closed-loop for `seconds`; each finishes the op it is
/// in when time is up, and the window closes when the last one returns.
Window RunWindow(api::AsterixInstance* db, Workload* w, uint32_t seed,
                 int window_no, double seconds, bool traced,
                 Clock::time_point epoch) {
  Window win;
  const int n = w->clients();
  std::vector<Client> clients(static_cast<size_t>(n));
  std::vector<SpanLog> logs(static_cast<size_t>(n));
  std::vector<std::vector<double>> lat(static_cast<size_t>(n));
  struct Totals {
    uint64_t units = 0, failed = 0, inserted = 0;
  };
  std::vector<Totals> totals(static_cast<size_t>(n));
  std::atomic<bool> stop{false};

  auto& reg = metrics::MetricsRegistry::Default();
  auto before = reg.SnapshotScalars();
  HostTicks ticks0 = HostTicks::Read();
  uint64_t cpu0 = ProcessCpuUs();
  auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Client& c = clients[static_cast<size_t>(i)];
      c.index = i;
      c.rng.seed((static_cast<uint64_t>(seed) << 20) ^
                 (static_cast<uint64_t>(window_no) << 8) ^
                 static_cast<uint64_t>(i));
      c.serve.client_id = "client-" + std::to_string(i);
      c.spans = traced ? &logs[static_cast<size_t>(i)] : nullptr;
      c.epoch = epoch;
      Totals& total = totals[static_cast<size_t>(i)];
      while (!stop.load(std::memory_order_acquire)) {
        c.op = (static_cast<uint64_t>(i) << 40) | c.seq++;
        auto op_start = Clock::now();
        if (traced) {
          c.op_span = c.spans->Add("bench.op", c.op, -1, c.Ns(op_start),
                                   c.Ns(op_start));
        }
        OpResult r = w->RunOp(db, &c);
        if (traced) c.spans->SetEnd(c.op_span, c.Ns(Clock::now()));
        total.units += r.units;
        total.failed += r.failed_units;
        total.inserted += r.inserted;
        lat[static_cast<size_t>(i)].push_back(r.latency_us);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  auto t1 = Clock::now();
  win.cpu_us = ProcessCpuUs() - cpu0;
  win.steal_ratio = StealRatio(ticks0, HostTicks::Read());
  win.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  auto after = reg.SnapshotScalars();
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    win.deltas[name] = v - (it == before.end() ? 0 : it->second);
  }
  for (int i = 0; i < n; ++i) {
    const size_t ci = static_cast<size_t>(i);
    win.ops += totals[ci].units;
    win.failed += totals[ci].failed;
    win.inserted += totals[ci].inserted;
    win.latency_us.insert(win.latency_us.end(), lat[ci].begin(), lat[ci].end());
    win.layers.Merge(clients[ci].layers);
    win.spans.Append(logs[ci]);
    win.verifier.Merge(clients[ci].verifier);
  }
  std::sort(win.latency_us.begin(), win.latency_us.end());
  return win;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

MetricValues EndToEnd(const Window& win, const Workload& w,
                      const ReferenceWork& ref, double setup_s,
                      double space_amp) {
  const double latency = Percentile(win.latency_us, 50);
  const double cpu =
      Ratio(static_cast<double>(win.cpu_us), static_cast<double>(win.ops));
  return {
      {"setup_s", setup_s},
      {"norm_latency_p50_us",
       w.HandoffBound()
           ? NormaliseToNominal(latency, ref.TotalUs(), kNominalReferenceUs)
           : NormaliseToNominal(latency, ref.CpuPartsUs(), kNominalCpuPartsUs)},
      {"norm_cpu_us_per_op",
       NormaliseToNominal(cpu, ref.CpuPartsUs(), kNominalCpuPartsUs)},
      {"space_amp", space_amp},
  };
}

MetricValues PerLayer(const Window& plain, const Window& traced) {
  const LayerSums& l = traced.layers;
  const double ops = static_cast<double>(traced.ops);
  const double executed = static_cast<double>(l.executed);
  const double records = static_cast<double>(traced.inserted);
  MetricValues m;
  m["api.serve_us"] = Ratio(l.serve_us, static_cast<double>(l.serve_calls));
  m["api.accounted_ratio"] = AccountedRatio(traced.spans.spans(), "api.serve");
  m["api.latency_p95_us"] = TailPercentile(plain.latency_us, 95, nullptr);
  m["api.latency_p99_us"] = TailPercentile(plain.latency_us, 99, nullptr);
  for (const char* q : {"vector_avg", "top_authors", "sel_join", "agg_index"}) {
    auto it = l.query_us.find(q);
    m[std::string("api.query_us.") + q] =
        it == l.query_us.end()
            ? 0
            : Ratio(it->second.first, static_cast<double>(it->second.second));
  }
  m["aql.parse_us"] = Ratio(l.parse_us, static_cast<double>(l.parse_n));
  m["algebricks.compile_us"] =
      std::max(0.0, Ratio(l.compile_us, static_cast<double>(l.compile_n)));
  m["server.admission_wait_us"] = Ratio(l.admission_us, executed);
  m["server.cache_hit_ratio"] = Ratio(static_cast<double>(l.from_cache),
                                      static_cast<double>(l.serve_calls));
  m["server.coalesced_ratio"] = Ratio(static_cast<double>(l.coalesced),
                                      static_cast<double>(l.serve_calls));
  m["hyracks.execute_us"] = Ratio(l.execute_us, executed);
  m["hyracks.operator_cpu_us"] = Ratio(l.operator_cpu_us, executed);
  m["hyracks.input_wait_us"] = Ratio(l.input_wait_us, executed);
  m["hyracks.backpressure_wait_us"] = Ratio(l.backpressure_us, executed);
  m["hyracks.jobs_per_op"] = Ratio(traced.Delta("hyracks.jobs"), ops);
  m["hyracks.connector_tuples_per_op"] = Ratio(l.connector_tuples, ops);
  m["hyracks.network_tuples_per_op"] = Ratio(l.network_tuples, ops);
  m["hyracks.vector_batches"] = Ratio(l.batches, ops);
  m["hyracks.kernel_us"] = Ratio(l.kernel_us, ops);
  m["storage.point_lookup_us"] =
      Ratio(l.point_lookup_us, static_cast<double>(l.point_lookup_n));
  const double hits = traced.Delta("storage.cache.hits");
  const double misses = traced.Delta("storage.cache.misses");
  m["storage.cache_hit_ratio"] = Ratio(hits, hits + misses);
  m["storage.cache_misses_per_op"] = Ratio(misses, ops);
  const double bloom_neg = traced.Delta("storage.bloom.misses");
  m["storage.bloom_negative_ratio"] =
      Ratio(bloom_neg, bloom_neg + traced.Delta("storage.bloom.hits"));
  const double pages = traced.Delta("storage.column.pages_read");
  const double pruned = traced.Delta("storage.column.pages_pruned_minmax");
  m["storage.column_pages_read_per_op"] = Ratio(pages, ops);
  m["storage.column_pages_pruned_ratio"] = Ratio(pruned, pages + pruned);
  m["storage.lsm_flushes"] = traced.Delta("storage.lsm.flushes");
  m["storage.lsm_merges"] = traced.Delta("storage.lsm.merges");
  m["storage.write_amp"] = Ratio(traced.Delta("storage.lsm.bytes_flushed") +
                                     traced.Delta("storage.lsm.bytes_merged"),
                                 traced.Delta("storage.lsm.bytes_ingested"));
  m["storage.write_stall_us"] =
      Ratio(traced.Delta("storage.lsm.write_stall_us.sum"), ops);
  m["storage.compaction_wait_us"] =
      Ratio(traced.Delta("storage.compaction.flush_wait_us.sum") +
                traced.Delta("storage.compaction.merge_wait_us.sum"),
            ops);
  m["txn.wal_appends_per_record"] = Ratio(traced.Delta("txn.wal.appends"), records);
  m["txn.wal_bytes_per_record"] = Ratio(traced.Delta("txn.wal.bytes"), records);
  m["txn.wal_forced_flushes_per_record"] =
      Ratio(traced.Delta("txn.wal.forced_flushes"), records);
  m["txn.lock_waits"] = traced.Delta("txn.lock.waits");
  m["txn.lock_wait_us"] = traced.Delta("txn.lock.wait_us.sum");
  m["host.steal_ratio"] = traced.steal_ratio;
  // Request latency of the traced window (Serve() time only, as untraced).
  m["trace.overhead_ratio"] = Ratio(Percentile(traced.latency_us, 50),
                                    Percentile(plain.latency_us, 50));
  return m;
}

// --- Main ------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint32_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
  std::string trace_file;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lookup|ingest|analytics|mixed --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-file PATH]\n       perfbench "
               "--list-metrics\n",
               why);
  return 2;
}

std::string CatalogueJson(const std::vector<MetricSpec>& specs) {
  std::string out = "[";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i) out += ", ";
    out += "{\"name\": ";
    AppendJsonString(&out, specs[i].name);
    out += ", \"unit\": ";
    AppendJsonString(&out, specs[i].unit);
    out += "}";
  }
  return out + "]";
}

bool OptimisedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
}

int Run(const Options& opt) {
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload);
  if (!w) return Usage("unknown workload");
  if (!OptimisedBuild()) {
    std::fprintf(stderr, "perfbench: WARNING: non-optimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
  }
  const Clock::time_point epoch = Clock::now();
  env::RemoveAll(opt.work_dir);
  if (!env::CreateDirs(opt.work_dir).ok()) return Usage("cannot create work dir");

  // Data generation is harness work, outside set-up time; the env line
  // reports how long it took.
  auto gen_start = Clock::now();
  w->Generate(opt.seed);
  const double generate_s =
      std::chrono::duration<double>(Clock::now() - gen_start).count();

  // Set-up: Boot, DDL, bulk load and flush, repeated on fresh directories;
  // the last instance is the one measured.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<api::AsterixInstance> db;
  std::string dir;
  for (int i = 0; i < kSetupMaxRuns; ++i) {
    if (i >= kSetupMinRuns && setup_total_s >= kSetupMinSeconds) break;
    db.reset();
    if (!dir.empty()) env::RemoveAll(dir);
    dir = opt.work_dir + "/instance-" + std::to_string(i);
    api::InstanceConfig config;
    config.base_dir = dir;
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 1;
    config.cluster.job_startup_us = 0;
    w->Configure(&config);
    auto t0 = Clock::now();
    db = std::make_unique<api::AsterixInstance>(config);
    Status st = db->Boot();
    if (st.ok()) st = w->Load(db.get());
    if (st.ok()) st = db->FlushAll();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    setup_total_s += setup_s.back();
  }
  std::sort(setup_s.begin(), setup_s.end());
  const double setup_median = Percentile(setup_s, 50);
  w->DropLoadData();
  // peak_rss_mb covers the timed windows, not the set-ups before them.
  ResetPeakRss();

  Window warm = RunWindow(db.get(), w.get(), opt.seed, 0, w->WarmupSeconds(),
                          false, epoch);
  ReferenceWork ref;
  ref.Start(kReferencePeriodMs);
  Window plain = RunWindow(db.get(), w.get(), opt.seed, 1, opt.seconds, false,
                           epoch);
  ref.Stop();
  Window traced;
  if (opt.trace == 1) {
    traced = RunWindow(db.get(), w.get(), opt.seed, 2, opt.seconds, true, epoch);
  }

  Verifier final_check;
  w->FinalCheck(db.get(), &final_check);
  double disk_bytes = 0;
  if (!db->FlushAll().ok()) final_check.Expect(false, "final FlushAll failed");
  for (const std::string& name : w->Datasets()) {
    storage::PartitionedDataset* ds = db->FindDataset(name);
    for (uint32_t p = 0; p < ds->num_partitions(); ++p) {
      disk_bytes += static_cast<double>(ds->partition(p)->TotalDiskBytes());
    }
  }
  const double space_amp =
      Ratio(disk_bytes, static_cast<double>(w->UserBytes()));

  Verifier all;
  for (const Window* win : {&warm, &plain, &traced}) all.Merge(win->verifier);
  all.Merge(final_check);
  const uint64_t attempted = warm.ops + plain.ops + traced.ops;
  const uint64_t failed = warm.failed + plain.failed + traced.failed +
                          final_check.failures();
  const bool correct = all.failures() == 0 && failed == 0 && plain.ops > 0;
  for (const std::string& m : all.messages()) {
    std::fprintf(stderr, "perfbench: VERIFY FAILED: %s\n", m.c_str());
  }

  double tail_pct = 0;
  TailPercentile(plain.latency_us, 99, &tail_pct);
  char host[64] = "";
  gethostname(host, sizeof(host) - 1);
  std::string env_json =
      "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
      std::to_string(opt.seed) + ", \"seconds\": " + FormatNumber(opt.seconds) +
      ", \"trace\": " + std::to_string(opt.trace) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
      "\", \"optimised_build\": " + (OptimisedBuild() ? "true" : "false") +
      ", \"clients\": " + std::to_string(w->clients()) +
      ", \"nodes\": 2, \"partitions_per_node\": 1, \"job_startup_us\": 0, " +
      w->Describe() + ", \"generate_s\": " + FormatNumber(generate_s) +
      ", \"setup_runs\": " + std::to_string(setup_s.size()) +
      ", \"setup_min_s\": " + FormatNumber(setup_s.front()) +
      ", \"setup_max_s\": " + FormatNumber(setup_s.back()) +
      ", \"window_s\": " + FormatNumber(plain.elapsed_s) +
      ", \"ops\": " + std::to_string(plain.ops) +
      ", \"throughput_ops_s\": " +
      FormatNumber(Ratio(static_cast<double>(plain.ops), plain.elapsed_s)) +
      ", \"peak_rss_mb\": " + FormatNumber(PeakRssMb()) +
      ", \"latency_samples\": " + std::to_string(plain.latency_us.size()) +
      ", \"latency_us_p10_p25_p50_p75_p90\": [" +
      FormatNumber(Percentile(plain.latency_us, 10)) + ", " +
      FormatNumber(Percentile(plain.latency_us, 25)) + ", " +
      FormatNumber(Percentile(plain.latency_us, 50)) + ", " +
      FormatNumber(Percentile(plain.latency_us, 75)) + ", " +
      FormatNumber(Percentile(plain.latency_us, 90)) + "]" +
      ", \"tail_percentile_supported\": " + FormatNumber(tail_pct) +
      ", \"process_cpu_us\": " + std::to_string(plain.cpu_us) +
      ", \"cpu_us_per_op\": " +
      FormatNumber(Ratio(static_cast<double>(plain.cpu_us),
                         static_cast<double>(plain.ops))) +
      ", \"host_steal_ratio\": " + FormatNumber(plain.steal_ratio) +
      ", \"ref_compute_us\": " + FormatNumber(ref.ComputeUs()) +
      ", \"ref_hash_us\": " + FormatNumber(ref.HashUs()) +
      ", \"ref_handoff_us\": " + FormatNumber(ref.HandoffUs()) +
      ", \"ref_total_us\": " + FormatNumber(ref.TotalUs()) +
      ", \"ref_cpu_parts_us\": " + FormatNumber(ref.CpuPartsUs()) +
      ", \"ref_samples\": " + std::to_string(ref.Samples()) + "}";
  std::printf("{\"env\": %s}\n", env_json.c_str());

  const bool per_layer = opt.trace == 1;
  MetricValues values =
      per_layer ? PerLayer(plain, traced)
                : EndToEnd(plain, *w, ref, setup_median, space_amp);
  if (per_layer && !opt.trace_file.empty()) {
    const auto& spans = traced.spans.spans();
    std::string out = "{\"env\": " + env_json + ", \"spans_total\": " +
                      std::to_string(spans.size()) + ", \"spans\": " +
                      SpansToJson(spans, kMaxSpansWritten) + "}\n";
    if (!env::WriteFileAtomic(opt.trace_file, out.data(), out.size()).ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_file.c_str());
    }
  }
  db.reset();
  env::RemoveAll(opt.work_dir);

  std::string line, error;
  if (!RenderResult(correct, attempted, failed,
                    per_layer ? PerLayerMetrics() : EndToEndMetrics(), values,
                    &line, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--list-metrics") {
      std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
                  CatalogueJson(EndToEndMetrics()).c_str(),
                  CatalogueJson(PerLayerMetrics()).c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--trace-file") {
      opt.trace_file = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty()) return Usage("--workload is required");
  if (!(opt.seconds >= 1 && opt.seconds <= 600)) {
    return Usage("--seconds must be in [1, 600]");
  }
  if (opt.trace < 0) return Usage("--trace must be 0 or 1");
  if (opt.work_dir.empty()) return Usage("--work-dir is required");
  return Run(opt);
}

}  // namespace
}  // namespace perfbench
}  // namespace asterix

int main(int argc, char** argv) {
  return asterix::perfbench::Main(argc, argv);
}
