// er_analytics: the paper's Section 6 queries through an in-process
// StatementRunner, cycling REMAP m1 -> m2 -> ... -> m6 -> m1. The server
// and the WAL are bypassed.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "api/statement_runner.h"
#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

using erbium::api::StatementRunner;

// An eighth of the paper-experiment scale, so that a run holds several
// whole REMAP cycles (F3 makes m6 -> m1 the slowest step): each REMAP
// rebuilds the database, and query speed moves with the new layout.
constexpr int kNumR = 2500;
constexpr int kNumS = 750;
constexpr uint64_t kDataSeed = 42;  // the runner's preload takes no seed
// setup_s is the median of kSetups set-ups before the first cycle and one
// more after every REMAP step: set-ups of 60-120 ms bunched at the start
// of a run read 54-97 ms between runs (spread 42%), because they all
// caught the same second of the machine; one per cycle still spread 23%.
constexpr int kSetups = 3;
constexpr int kRepsPerMapping = 2;  // passes over the queries per mapping
constexpr const char* kMappings[] = {"m1", "m2", "m3", "m4", "m5", "m6"};
constexpr size_t kNumMappings = std::size(kMappings);

struct Query {
  std::string name;
  std::string text;
  size_t want_rows = 0;  // from the generator replay
};

std::vector<Query> MakeQueries(const Figure4Oracle& o) {
  using F = Figure4Oracle;
  auto i64 = [](const Value& f, const char* name) {
    return F::Field(f, name).as_int64();
  };
  size_t unnest = 0, r3 = 0, e6 = 0, e9b = 0;
  std::set<int64_t> e6b_groups;
  for (const auto& [id, e] : o.r) {
    unnest += F::Field(e.fields, "r_mv1").array().size();
    if (e.cls == "R3") ++r3;
    if (e.cls == "R2" && i64(e.fields, "r2_a1") < 500) ++e9b;
    auto partners = o.rs.find(id);
    if (partners == o.rs.end()) continue;
    for (const auto& [s_id, rs_a1] : partners->second) {
      if (i64(e.fields, "r_a4") < 50 && i64(o.s.at(s_id), "s_a1") < 5000) ++e6;
      if (e.cls == "R3" && i64(e.fields, "r1_a1") < 900) {
        e6b_groups.insert(i64(e.fields, "r_a4"));
      }
    }
  }
  // E7: a third of the owners, as in bench_weak_entities.
  std::string ids;
  size_t e7 = 0;
  int count = kNumS / 3, step = std::max(1, kNumS / count);
  for (int i = 1; i <= kNumS && count > 0; i += step, --count) {
    ids += (ids.empty() ? "" : ", ") + std::to_string(i);
    auto it = o.s1.find(i);
    if (it != o.s1.end()) e7 += it->second.size();
  }
  std::set<int64_t> r2_linked;
  for (const auto& link : o.r2s1) r2_linked.insert(link.first);
  size_t num_r = o.r.size();
  return {
      {"E1", "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R", num_r},
      {"E2", "SELECT r_id, unnest(r_mv1) AS v FROM R", unnest},
      {"E4", "SELECT r_id, array_intersect(r_mv1, r_mv2) AS common FROM R", num_r},
      {"E5", "SELECT r_id, r_a1, r_a2, r_a3, r_a4, r1_a1, r1_a2, r3_a1, r3_a2 FROM R3", r3},
      {"E6", "SELECT r.r_id, s.s_id FROM R r JOIN S s ON RS "
             "WHERE r.r_a4 < 50 AND s.s_a1 < 5000", e6},
      {"E6b", "SELECT r.r_a4, count(*) AS n, avg(r.r3_a1) AS m "
              "FROM R3 r JOIN S s ON RS WHERE r.r1_a1 < 900", e6b_groups.size()},
      {"E7", "SELECT s.s_id, s.s_a1, s.s_a2, s1.s1_no, s1.s1_a1, s1.s1_a2 "
             "FROM S s JOIN S1 s1 ON S_S1 WHERE s.s_id IN (" + ids + ")", e7},
      {"E8", "SELECT r.r_id, r.r2_a1, s1.s1_a1 FROM R2 r JOIN S1 s1 ON R2S1",
       o.r2s1.size()},
      // E9a's text is E8's (bench_factorized): the same join, read as the
      // query M6 precomputes.
      {"E9a", "SELECT r.r_id, r.r2_a1, s1.s1_a1 FROM R2 r JOIN S1 s1 ON R2S1",
       o.r2s1.size()},
      {"E9b", "SELECT r_id, r2_a1, r2_a2 FROM R2 WHERE r2_a1 < 500", e9b},
      {"E9c", "SELECT r.r_id, count(*) AS partners FROM R2 r JOIN S1 s1 ON R2S1",
       r2_linked.size()},
  };
}

/// What the cycles of a run measured.
struct Phase {
  std::vector<double> setup_s;
  double query_s = 0;
  uint64_t queries = 0;
  std::vector<double> cycle_remap_s;
  std::map<std::string, std::vector<double>> query_ms;  // "E1.m1" -> samples
  std::map<std::string, std::vector<double>> step_s;    // "m1-m2" -> samples
  ClassCounts query, remap;
};

/// Creates a runner with the preload, timing it into `setups`; null, and
/// the error printed, when it fails.
std::unique_ptr<StatementRunner> TimedCreate(const StatementRunner::Options& options,
                                             std::vector<double>* setups) {
  auto t0 = Clock::now();
  auto created = StatementRunner::Create(options);
  setups->push_back(SecondsSince(t0));
  if (!created.ok()) {
    std::fprintf(stderr, "runner: %s\n", created.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*created);
}

/// Runs one REMAP cycle from m1 back to m1 into `p`, timing a set-up of
/// a separate runner after every step. Every answer must match the first
/// answer to the same query as a multiset, and the generator replay's row
/// count. False when a set-up fails.
bool RunCycle(StatementRunner* runner, const StatementRunner::Options& options,
              const std::vector<Query>& queries,
              std::map<std::string, std::string>* reference, Phase* p,
              Report* report) {
  double remap_s = 0;
  for (size_t m = 0; m < kNumMappings; ++m) {
    for (int rep = 0; rep < kRepsPerMapping; ++rep) {
      for (const Query& q : queries) {
        p->query.attempted++;
        auto t0 = Clock::now();
        auto got = runner->Execute(q.text);
        double s = SecondsSince(t0);
        if (!got.ok()) {
          p->query.failed++;
          continue;
        }
        p->query_s += s;
        p->queries++;
        p->query_ms[q.name + "." + kMappings[m]].push_back(s * 1000);
        std::string canonical = got->result.ToCanonicalString();
        auto it = reference->emplace(q.name, canonical).first;
        if (got->result.rows.size() != q.want_rows || it->second != canonical) {
          report->Wrong(q.name + " under " + kMappings[m] + ": " +
                        std::to_string(got->result.rows.size()) + " rows, want " +
                        std::to_string(q.want_rows));
        }
      }
    }
    const char* next = kMappings[(m + 1) % kNumMappings];
    p->remap.attempted++;
    auto t0 = Clock::now();
    erbium::Status st = runner->RemapPreset(next);
    double s = SecondsSince(t0);
    remap_s += s;
    p->step_s[std::string(kMappings[m]) + "-" + next].push_back(s);
    if (!st.ok()) {
      p->remap.failed++;
      report->Wrong(std::string("REMAP ") + next + ": " + st.ToString());
    }
    if (TimedCreate(options, &p->setup_s) == nullptr) return false;
  }
  p->cycle_remap_s.push_back(remap_s);
  return true;
}

void AddEndToEnd(Report* report, const Phase& p, double rss) {
  report->Add("setup_s", Median(p.setup_s), "s");
  report->Add("throughput_per_s", static_cast<double>(p.queries) / p.query_s, "1/s");
  report->Add("rss_mb", rss, "MB");
  // Each (query, mapping) pair is a class of its own: their medians span
  // 0.5-20 ms.
  std::vector<double> class_p50_us;
  for (const auto& [key, ms] : p.query_ms) class_p50_us.push_back(Median(ms) * 1000);
  AddLatencyGeomean(report, class_p50_us);
}

}  // namespace

int RunErAnalytics(const Args& args, Report* report) {
  erbium::Figure4Config cfg;
  cfg.seed = kDataSeed;
  cfg.num_r = kNumR;
  cfg.num_s = kNumS;
  auto oracle = ReplayFigure4(cfg);
  if (!oracle.ok()) {
    std::fprintf(stderr, "replay: %s\n", oracle.status().ToString().c_str());
    return 1;
  }
  std::vector<Query> queries = MakeQueries(*oracle);

  StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = kNumR;
  options.figure4_num_s = kNumS;
  Phase p;
  std::unique_ptr<StatementRunner> runner;
  for (int i = 0; i < kSetups; ++i) {
    runner.reset();
    runner = TimedCreate(options, &p.setup_s);
    if (runner == nullptr) return 1;
  }

  // The seed picks the order in which the queries run.
  std::mt19937_64 rng(args.seed);
  std::shuffle(queries.begin(), queries.end(), rng);

  std::map<std::string, std::string> reference;
  auto start = Clock::now();
  do {
    if (!RunCycle(runner.get(), options, queries, &reference, &p, report)) return 1;
  } while (SecondsSince(start) < args.seconds);
  report->Count("query", p.query);
  report->Count("remap", p.remap);
  Report e2e;
  AddEndToEnd(args.trace ? &e2e : report, p, RssMb());
  if (!args.trace) {
    std::printf("remap_cycle_s %.6g\n", Median(p.cycle_remap_s));
    return 0;
  }
  // The per-query and per-step times are kept in every run, so a traced
  // run runs the same code as an untraced one: its overhead is zero by
  // construction, and the lines say so.
  PrintTracingOverhead(e2e, e2e);
  for (const char* q : {"E1", "E2", "E4", "E5", "E6", "E6b", "E7", "E8", "E9a",
                        "E9b", "E9c"}) {
    for (const char* m : kMappings) {
      std::string key = std::string(q) + "." + m;
      report->Add("exec.query_ms." + key, Median(p.query_ms[key]), "ms");
    }
  }
  for (size_t m = 0; m < kNumMappings; ++m) {
    std::string key =
        std::string(kMappings[m]) + "-" + kMappings[(m + 1) % kNumMappings];
    report->Add("evolution.remap_s." + key, Median(p.step_s[key]), "s");
  }
  report->Add("evolution.remap_cycle_s", Median(p.cycle_remap_s), "s");
  return 0;
}

}  // namespace perfbench
