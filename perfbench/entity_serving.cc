// entity_serving: point reads and key-bound navigations over the wire
// against a default in-process server (1 shard, M1, Figure 4 preload).
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "erql/parser.h"
#include "erql/query_engine.h"
#include "exec/operator.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using erbium::server::Client;
using erbium::server::Server;
using erbium::server::ServerOptions;

// The scale of the paper experiments (EXPERIMENTS.md): 20,000 R-family
// and 6,000 S entities, about 40k RS edges.
constexpr int kNumR = 20000;
constexpr int kNumS = 6000;
// The runner's preload takes no seed: its data is the generator's
// default seed, and --seed drives the key stream.
constexpr uint64_t kDataSeed = 42;
// Closed loop, one statement in flight per connection, no more
// connections than cores.
constexpr int kConnections = 4;
// Untimed load before measuring, so the plan cache is full and holds
// navigation plans (F2) in every timed phase, traced chunks included:
// the server completes about 1,400 statements a second, against 1,024
// cache entries.
constexpr double kWarmupSeconds = 1.0;
// A traced run alternates this many untraced and as many traced chunks.
constexpr int kTraceChunks = 6;
// Class mix: a statement is a navigation with this probability. Every
// connection mixes both classes. At 20% the navigations saturated the
// CPU and point latency measured the queue behind them; per-class time
// slices made each slice's first point reads pay for evicting cached
// navigation plans (F2); dedicated navigation connections let the class
// ratio float with their speeds.
constexpr double kNavigateShare = 0.1;
// Navigation shapes by share. Under load their medians were R1R3 9.1 ms,
// S_S1 11.4 ms and RS 32 ms (F1). RS holds the top tenth, so
// navigate_p99 lies 9 points inside it; S_S1 holds ranks 0.2-0.9, so
// navigate_p50 lies 30 points from the nearer boundary.
constexpr double kNavRsShare = 0.1, kNavR1R3Share = 0.2;  // rest: S_S1

constexpr const char* kShapes[] = {"RS", "R1R3", "S_S1"};

struct Op {
  bool navigate = false;
  int shape = -1;  // navigate only: index into kShapes
  std::string text;
  std::vector<Row> want;
};

int64_t Pick(std::mt19937_64& rng, int64_t n) {
  return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
}

Op MakeOp(const Figure4Oracle& o, std::mt19937_64& rng, bool navigate) {
  using F = Figure4Oracle;
  std::uniform_real_distribution<double> unit(0, 1);
  Op op;
  op.navigate = navigate;
  double shape = unit(rng);
  if (!navigate) {
    if (shape < 1.0 / 3) {
      int64_t k = 1 + Pick(rng, kNumR);
      const Value& f = o.r.at(k).fields;
      op.text = "SELECT r_id, r_a1, r_a2, r_a3, r_a4, r_mv1 FROM R WHERE r_id = " +
                std::to_string(k);
      op.want = {{Value::Int64(k), F::Field(f, "r_a1"), F::Field(f, "r_a2"),
                  F::Field(f, "r_a3"), F::Field(f, "r_a4"),
                  F::Field(f, "r_mv1")}};
    } else if (shape < 2.0 / 3) {
      int64_t k = o.r1_family[Pick(rng, o.r1_family.size())];
      const Value& f = o.r.at(k).fields;
      op.text = "SELECT r_id, r_a1, r1_a1, r1_a2, r_mv1 FROM R1 WHERE r_id = " +
                std::to_string(k);
      op.want = {{Value::Int64(k), F::Field(f, "r_a1"), F::Field(f, "r1_a1"),
                  F::Field(f, "r1_a2"), F::Field(f, "r_mv1")}};
    } else {
      int64_t k = o.r3_ids[Pick(rng, o.r3_ids.size())];
      const Value& f = o.r.at(k).fields;
      op.text = "SELECT r_id, r_a4, r3_a1, r3_a2, r_mv1 FROM R3 WHERE r_id = " +
                std::to_string(k);
      op.want = {{Value::Int64(k), F::Field(f, "r_a4"), F::Field(f, "r3_a1"),
                  F::Field(f, "r3_a2"), F::Field(f, "r_mv1")}};
    }
    return op;
  }
  op.shape = shape < kNavRsShare ? 0 : shape < kNavRsShare + kNavR1R3Share ? 1 : 2;
  if (op.shape == 0) {
    int64_t k = 1 + Pick(rng, kNumR);
    op.text = "SELECT s.s_id, rs_a1, s.s_a1 FROM R r JOIN S s ON RS "
              "WHERE r.r_id = " + std::to_string(k);
    auto it = o.rs.find(k);
    if (it != o.rs.end()) {
      for (const auto& [s_id, rs_a1] : it->second) {
        op.want.push_back({Value::Int64(s_id), Value::Int64(rs_a1),
                           F::Field(o.s.at(s_id), "s_a1")});
      }
    }
  } else if (op.shape == 1) {
    int64_t k = o.r1_family[Pick(rng, o.r1_family.size())];
    op.text = "SELECT c.r_id, c.r3_a1 FROM R1 p JOIN R3 c ON R1R3 "
              "WHERE p.r_id = " + std::to_string(k);
    auto it = o.r1r3.find(k);
    if (it != o.r1r3.end()) {
      for (int64_t child : it->second) {
        op.want.push_back({Value::Int64(child),
                           F::Field(o.r.at(child).fields, "r3_a1")});
      }
    }
  } else {
    int64_t k = 1 + Pick(rng, kNumS);
    op.text = "SELECT s1.s1_no, s1.s1_a1 FROM S s JOIN S1 s1 ON S_S1 "
              "WHERE s.s_id = " + std::to_string(k);
    auto it = o.s1.find(k);
    if (it != o.s1.end()) {
      for (const Value& f : it->second) {
        op.want.push_back({F::Field(f, "s1_no"), F::Field(f, "s1_a1")});
      }
    }
  }
  return op;
}

/// What one load phase measured.
struct Phase {
  double seconds = 0;
  std::vector<double> point_us, navigate_us;
  std::vector<double> shape_us[std::size(kShapes)];  // navigate_us by shape
  // Traced phases only: server-timing footers, per class.
  std::vector<double> point_exec_us, point_queue_us, point_overhead_us,
      navigate_exec_us;
  ClassCounts point, navigate;
  uint64_t wrong = 0;
  std::string first_wrong;
};

/// Adds `from`'s samples, counts and time to `into`.
void Merge(Phase* into, const Phase& from) {
  into->seconds += from.seconds;
  Append(&into->point_us, from.point_us);
  Append(&into->navigate_us, from.navigate_us);
  for (size_t i = 0; i < std::size(kShapes); ++i) {
    Append(&into->shape_us[i], from.shape_us[i]);
  }
  Append(&into->point_exec_us, from.point_exec_us);
  Append(&into->point_queue_us, from.point_queue_us);
  Append(&into->point_overhead_us, from.point_overhead_us);
  Append(&into->navigate_exec_us, from.navigate_exec_us);
  into->point.Add(from.point);
  into->navigate.Add(from.navigate);
  if (from.wrong > 0 && into->wrong == 0) into->first_wrong = from.first_wrong;
  into->wrong += from.wrong;
}

/// Sends one statement, timing it, and checks the answer.
void RunOp(Client* client, const Op& op, bool traced, Phase* p) {
  ClassCounts& counts = op.navigate ? p->navigate : p->point;
  counts.attempted++;
  erbium::server::ServerTiming timing;
  auto t0 = Clock::now();
  auto outcome = Send(client, op.text, traced, &timing);
  double us = MicrosSince(t0);
  if (!outcome.ok()) {
    counts.failed++;
    return;
  }
  (op.navigate ? p->navigate_us : p->point_us).push_back(us);
  if (op.navigate) p->shape_us[op.shape].push_back(us);
  if (timing.present) {
    double exec = static_cast<double>(timing.execute_us);
    if (op.navigate) {
      p->navigate_exec_us.push_back(exec);
    } else {
      p->point_exec_us.push_back(exec);
      p->point_queue_us.push_back(static_cast<double>(timing.queue_wait_us));
      p->point_overhead_us.push_back(us - exec);
    }
  }
  if (!SameRows(outcome->result.rows, op.want)) {
    if (p->wrong++ == 0) p->first_wrong = op.text;
  }
}

/// Runs the closed loop for `seconds`. Traced phases send each statement
/// as a one-statement ExecuteBatch to get the server-timing footer.
Phase RunLoad(int port, const Figure4Oracle& oracle, uint64_t seed,
              double seconds, bool traced) {
  std::vector<Phase> per(kConnections);
  std::vector<std::thread> threads;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Phase& p = per[c];
      std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(c));
      Client::Options copts;
      copts.port = port;
      copts.name = "perfbench-" + std::to_string(c);
      auto client = Client::Connect(copts);
      if (!client.ok()) {
        p.wrong++;
        p.first_wrong = "connect: " + client.status().ToString();
        return;
      }
      std::uniform_real_distribution<double> unit(0, 1);
      while (Clock::now() < deadline) {
        RunOp(client->get(), MakeOp(oracle, rng, unit(rng) < kNavigateShare),
              traced, &p);
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase all;
  for (const Phase& p : per) Merge(&all, p);
  all.seconds = SecondsSince(start);
  return all;
}

/// Prints each navigation shape's samples and median, and the shapes of
/// the navigations ranked within five points of each reported percentile:
/// a percentile is away from a shape boundary when one shape fills its
/// window.
void PrintShapes(const Phase& p) {
  std::vector<std::pair<double, int>> all;  // (us, shape)
  for (size_t i = 0; i < std::size(kShapes); ++i) {
    std::printf("navigate shape %s samples %zu p50_us %.6g\n", kShapes[i],
                p.shape_us[i].size(), Median(p.shape_us[i]));
    for (double us : p.shape_us[i]) all.push_back({us, static_cast<int>(i)});
  }
  if (all.empty()) return;
  std::sort(all.begin(), all.end());
  for (double q : {0.5, 0.99}) {
    size_t lo = static_cast<size_t>(std::max(0.0, q - 0.05) * all.size());
    size_t hi = static_cast<size_t>(std::min(1.0, q + 0.05) * all.size());
    std::vector<size_t> n(std::size(kShapes), 0);
    for (size_t r = lo; r < hi; ++r) n[all[r].second]++;
    std::printf("navigate p%.0f window", q * 100);
    for (size_t i = 0; i < std::size(kShapes); ++i) {
      std::printf(" %s %.1f%%", kShapes[i],
                  100.0 * static_cast<double>(n[i]) / std::max<size_t>(1, hi - lo));
    }
    std::printf("\n");
  }
}

double Throughput(const Phase& p) {
  double done = static_cast<double>(p.point.attempted - p.point.failed +
                                    p.navigate.attempted - p.navigate.failed);
  return done / p.seconds;
}

void AddEndToEnd(Report* report, const Phase& p, double setup_s, double rss) {
  report->Add("setup_s", setup_s, "s");
  report->Add("throughput_per_s", Throughput(p), "1/s");
  report->Add("rss_mb", rss, "MB");
  AddLatencyGeomean(report, {Median(p.point_us), Median(p.navigate_us)});
}

/// Leaf rows over result rows, from an EXPLAIN ANALYZE rendering: each
/// plan line reads "<indent>Op(...)  rows=N ..."; a line is a leaf when
/// the next line is not indented deeper.
bool RowsExamined(const erbium::erql::QueryResult& explained, double* leaf,
                  double* out) {
  std::vector<std::pair<size_t, double>> ops;  // (indent, rows)
  for (const Row& row : explained.rows) {
    if (row.empty() || row[0].kind() != erbium::TypeKind::kString) continue;
    const std::string& line = row[0].as_string();
    size_t at = line.find("  rows=");
    if (at == std::string::npos) continue;
    size_t indent = line.find_first_not_of(' ');
    ops.push_back({indent, std::stod(line.substr(at + 7))});
  }
  if (ops.empty()) return false;
  *out += ops[0].second;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i + 1 == ops.size() || ops[i + 1].first <= ops[i].first) {
      *leaf += ops[i].second;
    }
  }
  return true;
}

/// In-process probes of the erql, exec and storage layers on the class
/// texts, against an M1 database holding the same data as the server.
void LayerProbes(Report* report, const Figure4Oracle& oracle, uint64_t seed) {
  erbium::Figure4Config cfg;
  cfg.seed = kDataSeed;
  cfg.num_r = kNumR;
  cfg.num_s = kNumS;
  std::shared_ptr<erbium::ERSchema> schema;
  auto db = erbium::MakeFigure4Database(erbium::Figure4M1(), cfg, &schema);
  if (!db.ok()) {
    report->Wrong("probe database: " + db.status().ToString());
    return;
  }
  auto opts = erbium::ExecOptions::Default();
  std::mt19937_64 rng(seed ^ 0x5eed);
  for (bool navigate : {false, true}) {
    const std::string cls = navigate ? "navigate" : "point";
    const int n = navigate ? 60 : 600;
    std::vector<double> parse_us, compile_us, run_us;
    double leaf = 0, out = 0;
    uint64_t probes0 = CounterSum("index.", ".probes");
    for (int i = 0; i < n; ++i) {
      Op op = MakeOp(oracle, rng, navigate);
      auto t0 = Clock::now();
      auto parsed = erbium::erql::Parser::Parse(op.text);
      parse_us.push_back(MicrosSince(t0));
      t0 = Clock::now();
      auto compiled = erbium::erql::QueryEngine::Compile(db->get(), op.text, opts);
      compile_us.push_back(MicrosSince(t0));
      if (!parsed.ok() || !compiled.ok()) {
        report->Wrong("compile " + op.text);
        continue;
      }
      t0 = Clock::now();
      auto rows = erbium::CollectRows(compiled->plan.get());
      run_us.push_back(MicrosSince(t0));
      if (!rows.ok() || !SameRows(*rows, op.want)) report->Wrong("probe " + op.text);
    }
    uint64_t probes = CounterSum("index.", ".probes") - probes0;
    for (int i = 0; i < n / 4; ++i) {
      Op op = MakeOp(oracle, rng, navigate);
      auto explained = erbium::erql::QueryEngine::Execute(
          db->get(), "EXPLAIN ANALYZE " + op.text, opts);
      if (!explained.ok() || !RowsExamined(*explained, &leaf, &out)) {
        report->Wrong("explain " + op.text);
      }
    }
    if (!navigate) report->Add("erql.parse_us.point", Median(parse_us), "us");
    report->Add("erql.compile_us." + cls, Median(compile_us), "us");
    report->Add("exec.run_us." + cls, Median(run_us), "us");
    report->Add("exec.rows_examined_per_row." + cls, leaf / std::max(out, 1.0),
                "ratio");
    report->Add("storage.index_probes_per_statement." + cls,
                static_cast<double>(probes) / n, "count");
  }
}

}  // namespace

int RunEntityServing(const Args& args, Report* report) {
  erbium::Figure4Config cfg;
  cfg.seed = kDataSeed;
  cfg.num_r = kNumR;
  cfg.num_s = kNumS;
  auto oracle = ReplayFigure4(cfg);
  if (!oracle.ok()) {
    std::fprintf(stderr, "replay: %s\n", oracle.status().ToString().c_str());
    return 1;
  }

  ServerOptions options;
  options.runner.figure4 = true;
  options.runner.figure4_num_r = kNumR;
  options.runner.figure4_num_s = kNumS;
  // setup_s: the start of the server that then serves the load. run.py
  // reports the median over several processes, which is what steadies
  // it: a start read 0.74 s in some processes and 0.83 s in others, and
  // several starts in one process moved together.
  auto t0 = Clock::now();
  auto started = Server::Start(options);
  const double setup_s = SecondsSince(t0);
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Server> server = std::move(*started);

  Phase warmup = RunLoad(server->port(), *oracle, ~args.seed, kWarmupSeconds, false);
  if (warmup.wrong > 0) report->Wrong(warmup.first_wrong);

  auto finish = [&](const Phase& p) {
    report->Count("point", p.point);
    report->Count("navigate", p.navigate);
    if (p.wrong > 0) report->Wrong(p.first_wrong);
  };

  if (!args.trace) {
    Phase p = RunLoad(server->port(), *oracle, args.seed, args.seconds, false);
    double rss = RssMb();
    server->Stop();
    finish(p);
    PrintLatency("point", p.point_us);
    PrintLatency("navigate", p.navigate_us);
    PrintShapes(p);
    AddEndToEnd(report, p, setup_s, rss);
    return 0;
  }

  // Traced run: untraced and traced chunks alternate, so both see the
  // same stretch of the run (throughput drifts down over a run; see the
  // README). Both sets of end-to-end numbers are printed; their
  // difference is the cost of the footer requests.
  Phase plain, traced;
  double hits = 0, misses = 0, lag_sum = 0, lag_count = 0;
  for (int i = 0; i < 2 * kTraceChunks; ++i) {
    const bool footers = i % 2 == 1;
    const double hits0 = static_cast<double>(CounterNow("plan_cache.hits"));
    const double misses0 = static_cast<double>(CounterNow("plan_cache.misses"));
    const HistTotals lag0 = HistogramNow("server.loop.lag_us");
    Phase chunk = RunLoad(server->port(), *oracle, args.seed + i,
                          args.seconds / (2 * kTraceChunks), footers);
    if (footers) {
      hits += static_cast<double>(CounterNow("plan_cache.hits")) - hits0;
      misses += static_cast<double>(CounterNow("plan_cache.misses")) - misses0;
      const HistTotals lag1 = HistogramNow("server.loop.lag_us");
      lag_sum += lag1.sum - lag0.sum;
      lag_count += static_cast<double>(lag1.count - lag0.count);
    }
    Merge(footers ? &traced : &plain, chunk);
  }
  double entries = static_cast<double>(GaugeNow("plan_cache.entries"));
  double rss = RssMb();
  server->Stop();
  finish(plain);
  finish(traced);

  Report plain_e2e, traced_e2e;
  AddEndToEnd(&plain_e2e, plain, setup_s, rss);
  AddEndToEnd(&traced_e2e, traced, setup_s, rss);
  PrintTracingOverhead(plain_e2e, traced_e2e);

  report->Add("server.roundtrip_us.point", Median(traced.point_us), "us");
  report->Add("server.execute_us.point", Median(traced.point_exec_us), "us");
  report->Add("server.queue_wait_us.point", Median(traced.point_queue_us), "us");
  report->Add("server.overhead_us.point", Median(traced.point_overhead_us), "us");
  report->Add("server.roundtrip_us.navigate", Median(traced.navigate_us), "us");
  report->Add("server.execute_us.navigate", Median(traced.navigate_exec_us), "us");
  report->Add("server.loop_lag_us", lag_sum / std::max(1.0, lag_count), "us");
  std::printf("plan_cache hits %.0f misses %.0f (traced chunks)\n", hits, misses);
  report->Add("erql.plan_cache_hit_ratio", hits / std::max(1.0, hits + misses),
              "ratio");
  report->Add("erql.plan_cache_entries", entries, "count");
  LayerProbes(report, *oracle, args.seed);
  return 0;
}

}  // namespace perfbench
