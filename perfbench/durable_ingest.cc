// durable_ingest: acknowledged INSERTs over the wire into a fresh 4-shard
// WAL-backed directory, read-your-writes point reads beside them, periodic
// CHECKPOINTs, then a stop without the shutdown checkpoint and a reopen.
// Every round does the same fixed work; a run repeats whole rounds.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "api/statement_runner.h"
#include "common.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using erbium::api::StatementRunner;
using erbium::server::Client;
using erbium::server::Server;
using erbium::server::ServerOptions;
using SyncMode = erbium::durability::WalWriter::SyncMode;

constexpr int kShards = 4;
// The timed rounds keep the program's default sync policy (write(2) per
// append, no fdatasync): each round stops the process's server, not the
// OS, which that policy survives. With one fdatasync per append the
// figures followed the shared disk, not the program: five 30 s runs gave
// 2.8k-11.1k operations/s. The fdatasync cost is measured on its own in
// the traced run (durability.insert_us).
constexpr SyncMode kRoundSync = SyncMode::kNone;
constexpr int kConnections = 4;
// Base population, from the generator with the workload seed: about
// 12,000 entities across R, R1-R4, S, S1 and S2.
constexpr int kBaseR = 6000;
constexpr int kBaseS = 1800;
constexpr int kBaseBatch = 64;  // pipelined INSERTs per base-load batch
// Timed work per round: this many INSERTs spread over the connections,
// a read-your-writes read after every kReadEvery-th insert, and a
// CHECKPOINT from connection 0 after every kCheckpointEvery of its
// operations: one per round, about 60% of the way through, so the reopen
// replays the WAL written after it. A CHECKPOINT fsyncs its snapshot, so
// more of them per round tied throughput to the shared disk.
constexpr int kInserts = 8000;
constexpr int kReadEvery = 4;
constexpr int kCheckpointEvery = 1500;
// rss_mb is the resident set at the end of this round's timed load, and
// every run does at least this many rounds and one more. The heap grows
// over the first rounds and then levels off (36, 77, 86, 87 ... 88 MB in
// one process), so a median over however many rounds a process completed
// followed the host's speed: 77 MB in slow sets, 85 MB in fast ones.
constexpr size_t kRssRound = 2;

/// One entity as written: its set, INSERT text, and the read that must
/// return exactly `row` once the insert is acknowledged.
struct Write {
  std::string set;
  std::string insert;
  std::string select;
  Row row;
};

/// Attribute list each set's scans and reads project (scalars only:
/// INSERT carries no multi-valued attributes).
const std::vector<std::string>& SetAttrs(const std::string& set) {
  static const std::map<std::string, std::vector<std::string>> kAttrs = {
      {"R", {"r_id", "r_a1", "r_a2", "r_a3", "r_a4"}},
      {"R1", {"r_id", "r_a1", "r_a2", "r_a3", "r_a4", "r1_a1", "r1_a2"}},
      {"R2", {"r_id", "r_a1", "r_a2", "r_a3", "r_a4", "r2_a1", "r2_a2"}},
      {"R3", {"r_id", "r_a1", "r_a2", "r_a3", "r_a4", "r1_a1", "r1_a2",
              "r3_a1", "r3_a2"}},
      {"R4", {"r_id", "r_a1", "r_a2", "r_a3", "r_a4", "r1_a1", "r1_a2",
              "r4_a1"}},
      {"S", {"s_id", "s_a1", "s_a2"}},
      {"S1", {"s_id", "s1_no", "s1_a1", "s1_a2"}},
      {"S2", {"s_id", "s2_no", "s2_a1"}},
  };
  return kAttrs.at(set);
}
const char* kSets[] = {"R", "R1", "R2", "R3", "R4", "S", "S1", "S2"};

/// The sets whose scan includes an entity of most specific class `cls`.
std::vector<std::string> Ancestors(const std::string& cls) {
  if (cls == "R1" || cls == "R2") return {"R", cls};
  if (cls == "R3" || cls == "R4") return {"R", "R1", cls};
  return {cls};
}

std::string Literal(const Value& v) {
  if (v.kind() == erbium::TypeKind::kString) return "'" + v.as_string() + "'";
  if (v.kind() == erbium::TypeKind::kFloat64) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v.as_float64());
    std::string s = buf;
    if (s.find_first_of(".e") == std::string::npos) s += ".0";
    return s;
  }
  return v.ToString();
}

Write MakeWrite(const std::string& cls, const Value& fields) {
  Write w;
  w.set = cls;
  const auto& attrs = SetAttrs(cls);
  w.insert = "INSERT " + cls + " (";
  w.select = "SELECT ";
  std::string where;
  for (size_t i = 0; i < attrs.size(); ++i) {
    Value v = Figure4Oracle::Field(fields, attrs[i]);
    w.insert += (i ? ", " : "") + attrs[i] + " = " + Literal(v);
    w.select += (i ? ", " : "") + attrs[i];
    w.row.push_back(v);
  }
  if (cls == "S1" || cls == "S2") {
    std::string no = cls == "S1" ? "s1_no" : "s2_no";
    where = "s_id = " + Literal(w.row[0]) + " AND " + no + " = " +
            Literal(w.row[1]);
  } else {
    where = attrs[0] + " = " + Literal(w.row[0]);
  }
  w.insert += ")";
  w.select += " FROM " + cls + " WHERE " + where;
  return w;
}

/// The base population: the generator's entities for the workload seed.
/// Owners (R family, S) come first, weak entities second, so no weak
/// entity is inserted before its owner.
std::vector<std::vector<Write>> BaseWrites(uint64_t seed) {
  std::vector<std::vector<Write>> owners_then_weak(2);
  erbium::Figure4Sinks sinks;
  sinks.insert_entity = [&](const std::string& cls, Value fields) {
    bool weak = cls == "S1" || cls == "S2";
    owners_then_weak[weak].push_back(MakeWrite(cls, fields));
    return erbium::Status::OK();
  };
  sinks.insert_relationship = [](const std::string&, erbium::IndexKey,
                                 erbium::IndexKey, Value) {
    return erbium::Status::OK();  // INSERT has no relationship form
  };
  erbium::Figure4Config cfg;
  cfg.seed = seed;
  cfg.num_r = kBaseR;
  cfg.num_s = kBaseS;
  erbium::Status st = erbium::PopulateFigure4(sinks, cfg);
  if (!st.ok()) std::fprintf(stderr, "base: %s\n", st.ToString().c_str());
  return owners_then_weak;
}

/// The share of each of kSets among the base population's entities.
std::vector<double> ClassShares(const std::vector<std::vector<Write>>& base) {
  std::vector<double> shares(std::size(kSets), 0.0);
  double total = 0;
  for (const auto& group : base) {
    for (const Write& w : group) {
      auto at = std::find(std::begin(kSets), std::end(kSets), w.set);
      shares[at - std::begin(kSets)] += 1;
      total += 1;
    }
  }
  for (double& s : shares) s /= std::max(1.0, total);
  return shares;
}

/// The timed inserts of one round: new keys above the base population,
/// weak entities owned by base S entities. Each insert's class is drawn
/// with the base population's shares, so the timed load has the
/// generator's own mix of sets.
std::vector<Write> RoundWrites(uint64_t seed, const std::vector<double>& shares) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0, 1);
  std::discrete_distribution<size_t> pick_class(shares.begin(), shares.end());
  std::vector<Write> writes;
  int64_t next_r = kBaseR + 1, next_s = kBaseS + 1, next_no = 100;
  auto i64 = [&](uint64_t mod) { return Value::Int64(static_cast<int64_t>(rng() % mod)); };
  auto str = [&](const char* p) {
    return Value::String(std::string(p) + "_" + std::to_string(rng() % 1000));
  };
  for (int i = 0; i < kInserts; ++i) {
    const std::string cls = kSets[pick_class(rng)];
    Value::StructData f;
    if (cls[0] == 'R') {
      f.emplace_back("r_id", Value::Int64(next_r++));
      f.emplace_back("r_a1", i64(10000));
      f.emplace_back("r_a2", Value::Float64(unit(rng) * 1000.0));
      f.emplace_back("r_a3", str("r"));
      f.emplace_back("r_a4", i64(100));
      if (cls == "R1" || cls == "R3" || cls == "R4") {
        f.emplace_back("r1_a1", i64(1000));
        f.emplace_back("r1_a2", str("r1"));
      }
      if (cls == "R2") {
        f.emplace_back("r2_a1", i64(1000));
        f.emplace_back("r2_a2", str("r2"));
      }
      if (cls == "R3") {
        f.emplace_back("r3_a1", i64(1000));
        f.emplace_back("r3_a2", Value::Float64(unit(rng) * 10.0));
      }
      if (cls == "R4") f.emplace_back("r4_a1", i64(1000));
    } else if (cls == "S") {
      f.emplace_back("s_id", Value::Int64(next_s++));
      f.emplace_back("s_a1", i64(10000));
      f.emplace_back("s_a2", str("s"));
    } else {
      f.emplace_back("s_id", Value::Int64(1 + static_cast<int64_t>(rng() % kBaseS)));
      if (cls == "S1") {
        f.emplace_back("s1_no", Value::Int64(next_no++));
        f.emplace_back("s1_a1", i64(500));
        f.emplace_back("s1_a2", str("s1"));
      } else {
        f.emplace_back("s2_no", Value::Int64(next_no++));
        f.emplace_back("s2_a1", Value::Float64(unit(rng) * 100.0));
      }
    }
    writes.push_back(MakeWrite(cls, Value::Struct(std::move(f))));
  }
  return writes;
}

/// The Figure 4 DDL as single CREATE statements (comments dropped).
std::vector<std::string> DdlStatements() {
  std::vector<std::string> out;
  const std::string ddl = erbium::Figure4Ddl();
  for (size_t at = 0; at < ddl.size();) {
    size_t end = std::min(ddl.find(';', at), ddl.size());
    std::string stmt = ddl.substr(at, end - at);
    at = end + 1;
    size_t create = stmt.find("CREATE");
    if (create != std::string::npos) out.push_back(stmt.substr(create));
  }
  return out;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

std::vector<double> ShardInserts() {
  std::vector<double> v;
  for (int k = 0; k < kShards; ++k) {
    v.push_back(static_cast<double>(
        CounterNow("shard." + std::to_string(k) + ".inserts")));
  }
  return v;
}

/// What the rounds of one phase measured.
struct Phase {
  // Per round. Medians over rounds are what a run reports (rss_mb aside;
  // see kRssRound): the host's steal time comes in bursts of seconds, and
  // a burst slows the rounds it falls on.
  std::vector<double> setup_s, throughput, rss_mb, recovery_s, bytes_per_entity;
  std::vector<double> write_us, point_us;
  // Traced rounds only: server-timing footers of the INSERTs.
  std::vector<double> write_exec_us, write_overhead_us;
  double lock_wait_us = 0;  // statement.lock_wait_us over the timed loads
  std::vector<double> shard_inserts = std::vector<double>(kShards, 0.0);
  ClassCounts write, point, checkpoint, recover;
  uint64_t wrong = 0;
  std::string first_wrong;
  void Wrong(const std::string& what) {
    if (wrong++ == 0) first_wrong = what;
  }
};

/// Checks the reopened directory against `stored`, the base population
/// followed (from `first_timed` on) by the acknowledged timed inserts:
/// every set holds exactly these, values included, and each acknowledged
/// insert is found by a point read that the router sends to a single
/// shard (its shard: the read looks nowhere else).
void Verify(StatementRunner* runner, const std::vector<Write>& stored,
            size_t first_timed, Phase* phase) {
  std::map<std::string, std::vector<Row>> want;
  for (const Write& w : stored) {
    for (const std::string& set : Ancestors(w.set)) {
      size_t n = SetAttrs(set).size();
      want[set].push_back(Row(w.row.begin(), w.row.begin() + n));
    }
  }
  for (const char* set : kSets) {
    std::string text = "SELECT ";
    const auto& attrs = SetAttrs(set);
    for (size_t i = 0; i < attrs.size(); ++i) text += (i ? ", " : "") + attrs[i];
    auto got = runner->Execute(text + " FROM " + set);
    if (!got.ok() || !SameRows(got->result.rows, want[set])) {
      phase->Wrong(std::string("recovered set ") + set + " differs: " +
                   (got.ok() ? std::to_string(got->result.rows.size()) + " rows, want " +
                                   std::to_string(want[set].size())
                             : got.status().ToString()));
    }
  }
  for (size_t i = first_timed; i < stored.size(); ++i) {
    auto got = runner->Execute(stored[i].select);
    if (!got.ok() || !SameRows(got->result.rows, {stored[i].row}) ||
        got->shard < 0) {
      phase->Wrong("recovered " + stored[i].select);
    }
  }
}

void RunRound(const Args& args, uint64_t round, bool traced,
              const std::vector<std::vector<Write>>& base,
              const std::vector<double>& shares, Phase* phase) {
  fs::path dir = fs::absolute(fs::path(args.data_dir) /
                              ("ingest-" + std::to_string(round)));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<Write> timed = RoundWrites(args.seed * 7919 + round, shares);
  const std::vector<double> shards0 = ShardInserts();

  // ---- Setup: schema, base load, CHECKPOINT ----------------------------------
  ServerOptions options;
  options.runner.attach_dir = dir.string();
  options.runner.shards = kShards;
  options.runner.sync = kRoundSync;
  options.checkpoint_on_shutdown = false;
  auto t0 = Clock::now();
  auto server = Server::Start(options);
  if (!server.ok()) {
    phase->Wrong("server: " + server.status().ToString());
    return;
  }
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConnections; ++c) {
    Client::Options copts;
    copts.port = (*server)->port();
    copts.name = "ingest-" + std::to_string(c);
    auto client = Client::Connect(copts);
    if (!client.ok()) {
      phase->Wrong("connect: " + client.status().ToString());
      return;
    }
    clients.push_back(std::move(*client));
  }
  for (const std::string& stmt : DdlStatements()) {
    auto r = clients[0]->Execute(stmt);
    if (!r.ok()) phase->Wrong("ddl: " + r.status().ToString());
  }
  std::atomic<int> base_failures{0};
  for (const auto& group : base) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::string> batch;
        for (size_t i = c; i < group.size(); i += kConnections) {
          batch.push_back(group[i].insert);
          if (batch.size() < kBaseBatch && i + kConnections < group.size()) continue;
          auto items = clients[c]->ExecuteBatch(batch);
          bool ok = items.ok();
          for (size_t j = 0; ok && j < items->size(); ++j) ok = (*items)[j].status.ok();
          if (!ok) base_failures++;
          batch.clear();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  if (base_failures > 0) phase->Wrong("base load batch failed");
  auto ck = clients[0]->Execute("CHECKPOINT");
  if (!ck.ok()) phase->Wrong("checkpoint: " + ck.status().ToString());
  phase->setup_s.push_back(SecondsSince(t0));

  // ---- Timed load ---------------------------------------------------------------
  std::vector<char> acked(timed.size(), 0);
  std::vector<Phase> per(kConnections);
  std::vector<std::thread> threads;
  const HistTotals lock0 = HistogramNow("statement.lock_wait_us");
  t0 = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Phase& p = per[c];
      int ops = 0, inserts = 0;
      for (size_t i = c; i < timed.size(); i += kConnections) {
        erbium::server::ServerTiming timing;
        p.write.attempted++;
        auto w0 = Clock::now();
        auto ack = Send(clients[c].get(), timed[i].insert, traced, &timing);
        double us = MicrosSince(w0);
        ++ops;
        if (!ack.ok()) {
          p.write.failed++;
        } else {
          p.write_us.push_back(us);
          acked[i] = 1;
          if (timing.present) {
            p.write_exec_us.push_back(static_cast<double>(timing.execute_us));
            p.write_overhead_us.push_back(us - static_cast<double>(timing.execute_us));
          }
        }
        if (++inserts % kReadEvery == 0) {
          p.point.attempted++;
          auto r0 = Clock::now();
          auto got = clients[c]->Execute(timed[i].select);
          double rus = MicrosSince(r0);
          ++ops;
          if (!got.ok()) {
            p.point.failed++;
          } else {
            p.point_us.push_back(rus);
            if (ack.ok() && !SameRows(got->result.rows, {timed[i].row})) {
              p.Wrong("read-your-writes " + timed[i].select);
            }
          }
        }
        if (c == 0 && ops >= kCheckpointEvery) {
          ops = 0;
          p.checkpoint.attempted++;
          if (!clients[c]->Execute("CHECKPOINT").ok()) p.checkpoint.failed++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double load_s = SecondsSince(t0);
  phase->lock_wait_us += HistogramNow("statement.lock_wait_us").sum - lock0.sum;
  const std::vector<double> shards1 = ShardInserts();
  for (int k = 0; k < kShards; ++k) phase->shard_inserts[k] += shards1[k] - shards0[k];
  phase->rss_mb.push_back(RssMb());
  uint64_t done = 0;
  for (Phase& p : per) {
    Append(&phase->write_us, p.write_us);
    Append(&phase->point_us, p.point_us);
    Append(&phase->write_exec_us, p.write_exec_us);
    Append(&phase->write_overhead_us, p.write_overhead_us);
    phase->write.Add(p.write);
    phase->point.Add(p.point);
    phase->checkpoint.Add(p.checkpoint);
    for (const ClassCounts* c : {&p.write, &p.point, &p.checkpoint}) {
      done += c->attempted - c->failed;
    }
    if (p.wrong > 0) phase->Wrong(p.first_wrong);
  }
  phase->throughput.push_back(static_cast<double>(done) / load_s);

  // ---- Stop without the shutdown checkpoint, measure, reopen --------------------
  clients.clear();
  (*server)->Stop();
  server->reset();
  std::vector<Write> stored;
  for (const auto& group : base) stored.insert(stored.end(), group.begin(), group.end());
  size_t first_timed = stored.size();
  for (size_t i = 0; i < timed.size(); ++i) {
    if (acked[i]) stored.push_back(timed[i]);
  }
  phase->bytes_per_entity.push_back(static_cast<double>(DirBytes(dir)) /
                                    static_cast<double>(stored.size()));
  StatementRunner::Options ropts;
  ropts.attach_dir = dir.string();
  ropts.shards = kShards;
  ropts.sync = kRoundSync;
  phase->recover.attempted++;
  t0 = Clock::now();
  {
    auto runner = StatementRunner::Create(ropts);
    phase->recovery_s.push_back(SecondsSince(t0));
    if (!runner.ok()) {
      phase->recover.failed++;
      phase->Wrong("reopen: " + runner.status().ToString());
    } else {
      Verify(runner->get(), stored, first_timed, phase);
    }
  }
  fs::remove_all(dir);
}

/// Repeats whole rounds until `seconds` have passed (at least
/// kRssRound + 1 of them), or until an answer is wrong. With
/// `traced`, rounds alternate between `plain` and `traced`, which sends
/// its INSERTs with timing footers, so both see the same stretch of the
/// run; the last round is a traced one.
void RunRounds(const Args& args, double seconds,
               const std::vector<std::vector<Write>>& base, Phase* plain,
               Phase* traced) {
  const std::vector<double> shares = ClassShares(base);
  auto start = Clock::now();
  for (uint64_t round = 0;; ++round) {
    const bool footers = traced != nullptr && round % 2 == 1;
    RunRound(args, round, footers, base, shares, footers ? traced : plain);
    if (plain->wrong > 0 || (traced != nullptr && traced->wrong > 0)) break;
    if (SecondsSince(start) >= seconds && round >= kRssRound &&
        (traced == nullptr || footers)) {
      break;
    }
  }
}

void AddEndToEnd(Report* report, const Phase& p) {
  report->Add("setup_s", Median(p.setup_s), "s");
  report->Add("throughput_per_s", Median(p.throughput), "1/s");
  report->Add("rss_mb",
              p.rss_mb.empty() ? 0 : p.rss_mb[std::min(kRssRound, p.rss_mb.size() - 1)],
              "MB");
  // Medians only: over five 30 s runs each p99 spread 70-76% between
  // runs (write 0.50-1.40 ms) while the p50s stayed within 12%. The tail
  // follows page-cache writeback and the CHECKPOINT's fsyncs on the
  // shared disk.
  AddLatencyGeomean(report, {Median(p.write_us), Median(p.point_us)});
}

void Count(Report* report, const Phase& p) {
  report->Count("write", p.write);
  report->Count("point", p.point);
  report->Count("checkpoint", p.checkpoint);
  report->Count("recover", p.recover);
  if (p.wrong > 0) report->Wrong(p.first_wrong);
}

/// In-process probe of the durability layer: INSERTs through an attached
/// 4-shard fsync StatementRunner (no server), a CHECKPOINT after every
/// kProbeCheckpointEvery of them, and a reopen that replays the
/// kProbeCheckpointEvery records written after the last one.
constexpr size_t kProbeWrites = 3000;
constexpr size_t kProbeCheckpointEvery = 1000;
void DurabilityProbe(const Args& args, const std::vector<std::vector<Write>>& base,
                     Report* report) {
  fs::path dir = fs::absolute(fs::path(args.data_dir) / "probe");
  fs::remove_all(dir);
  fs::create_directories(dir);
  StatementRunner::Options ropts;
  ropts.attach_dir = dir.string();
  ropts.shards = kShards;
  ropts.sync = SyncMode::kFsync;
  std::vector<double> insert_us, checkpoint_ms;
  uint64_t appends = 0, bytes = 0, ck_bytes = 0, replayed = 0;
  double reopen_us = 0;
  {
    auto runner = StatementRunner::Create(ropts);
    if (!runner.ok()) {
      report->Wrong("probe open: " + runner.status().ToString());
      return;
    }
    for (const std::string& stmt : DdlStatements()) {
      if (!(*runner)->Execute(stmt).ok()) report->Wrong("probe ddl: " + stmt);
    }
    uint64_t a0 = CounterNow("wal.appends"), b0 = CounterNow("wal.bytes");
    // Owners only (base[0]), so no weak entity precedes its owner.
    const size_t n = std::min<size_t>(base[0].size(), kProbeWrites);
    for (size_t i = 0; i < n; ++i) {
      auto t0 = Clock::now();
      auto r = (*runner)->Execute(base[0][i].insert);
      insert_us.push_back(MicrosSince(t0));
      if (!r.ok()) report->Wrong("probe insert: " + r.status().ToString());
      if ((i + 1) % kProbeCheckpointEvery == 0 && i + 1 < n) {
        uint64_t c0 = CounterNow("checkpoint.bytes");
        auto c = Clock::now();
        if (!(*runner)->Execute("CHECKPOINT").ok()) report->Wrong("probe checkpoint");
        checkpoint_ms.push_back(MicrosSince(c) / 1000);
        ck_bytes += CounterNow("checkpoint.bytes") - c0;
      }
    }
    appends = CounterNow("wal.appends") - a0;
    bytes = CounterNow("wal.bytes") - b0;
    report->Add("durability.insert_us", Median(insert_us), "us");
    report->Add("durability.wal_appends_per_write",
                static_cast<double>(appends) / static_cast<double>(n), "count");
    report->Add("durability.wal_bytes_per_write",
                static_cast<double>(bytes) / static_cast<double>(n), "B");
    report->Add("durability.checkpoint_ms", Median(checkpoint_ms), "ms");
    report->Add("durability.checkpoint_bytes",
                static_cast<double>(ck_bytes) / std::max<size_t>(1, checkpoint_ms.size()),
                "B");
  }
  {
    uint64_t r0 = CounterNow("recovery.records_replayed");
    auto t0 = Clock::now();
    auto reopened = StatementRunner::Create(ropts);
    reopen_us = MicrosSince(t0);
    replayed = CounterNow("recovery.records_replayed") - r0;
    if (!reopened.ok()) report->Wrong("probe reopen: " + reopened.status().ToString());
  }
  report->Add("durability.replayed_records", static_cast<double>(replayed), "count");
  report->Add("durability.replay_us_per_record",
              reopen_us / std::max<double>(1, static_cast<double>(replayed)), "us");
  fs::remove_all(dir);
}

}  // namespace

int RunDurableIngest(const Args& args, Report* report) {
  std::error_code ec;
  fs::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "data dir %s: %s\n", args.data_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  auto base = BaseWrites(args.seed);
  if (!args.trace) {
    Phase p;
    RunRounds(args, args.seconds, base, &p, nullptr);
    Count(report, p);
    AddEndToEnd(report, p);
    PrintLatency("write", p.write_us);
    PrintLatency("point", p.point_us);
    std::printf("recovery_s %.6g disk_bytes_per_entity %.6g\n", Median(p.recovery_s),
                Median(p.bytes_per_entity));
    return 0;
  }
  Phase plain, traced;
  RunRounds(args, args.seconds, base, &plain, &traced);
  Count(report, plain);
  Count(report, traced);
  Report plain_e2e, traced_e2e;
  AddEndToEnd(&plain_e2e, plain);
  AddEndToEnd(&traced_e2e, traced);
  PrintTracingOverhead(plain_e2e, traced_e2e);

  double statements = static_cast<double>(
      traced.write.attempted + traced.point.attempted + traced.checkpoint.attempted);
  report->Add("server.execute_us.write", Median(traced.write_exec_us), "us");
  report->Add("server.overhead_us.write", Median(traced.write_overhead_us), "us");
  report->Add("api.lock_wait_us_per_statement",
              traced.lock_wait_us / std::max(1.0, statements), "us");
  double max = 0, sum = 0;
  for (double d : traced.shard_inserts) {
    max = std::max(max, d);
    sum += d;
  }
  report->Add("shard.insert_skew", sum > 0 ? max / (sum / kShards) : 0, "ratio");
  // The reopen of every traced round's directory, and its size after the
  // stop, over the entities stored.
  report->Add("durability.recovery_s", Median(traced.recovery_s), "s");
  report->Add("durability.disk_bytes_per_entity", Median(traced.bytes_per_entity),
              "B");
  DurabilityProbe(args, base, report);
  return 0;
}

}  // namespace perfbench
