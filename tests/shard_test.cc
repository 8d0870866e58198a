// Sharded-engine tests: schema-derived co-partitioning (anchors via ISA
// and weak edges, relationship dominance), strict ERBIUM_SHARDS parsing,
// the router's statement classification (single-shard / shard-local /
// scatter-gather), sharded-vs-serial result equivalence across mappings,
// fan-out DDL/REMAP, SHOW SHARDS, sharded ATTACH layout checks, and a
// 32-client hammer against a serial oracle. The hammer runs under TSan
// in CI — the assertions matter, but so does the absence of races.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/statement_runner.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/co_partition.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

using api::StatementOutcome;
using api::StatementRunner;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/erbium_shard_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<StatementRunner> Figure4Runner(int shards) {
  StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 400;
  options.figure4_num_s = 120;
  options.shards = shards;
  auto runner = StatementRunner::Create(std::move(options));
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  return runner.ok() ? std::move(runner).value() : nullptr;
}

// ---- ERBIUM_SHARDS strict parsing ------------------------------------------

TEST(ShardCountFromEnvTest, StrictParsing) {
  const char* saved = std::getenv("ERBIUM_SHARDS");
  std::string saved_value = saved == nullptr ? "" : saved;

  ::unsetenv("ERBIUM_SHARDS");
  EXPECT_EQ(shard::ShardCountFromEnv(), 1);
  ::setenv("ERBIUM_SHARDS", "", 1);
  EXPECT_EQ(shard::ShardCountFromEnv(), 1);
  ::setenv("ERBIUM_SHARDS", "4", 1);
  EXPECT_EQ(shard::ShardCountFromEnv(), 4);
  ::setenv("ERBIUM_SHARDS", "1", 1);
  EXPECT_EQ(shard::ShardCountFromEnv(), 1);
  // Rejected: zero, negatives, garbage, trailing junk, overflow — all
  // fall back to 1 (warn once to stderr, never abort).
  for (const char* bad : {"0", "-1", "-4", "abc", "4x", "x4", "4.5", " ",
                          "99999999999999999999"}) {
    ::setenv("ERBIUM_SHARDS", bad, 1);
    EXPECT_EQ(shard::ShardCountFromEnv(), 1) << "ERBIUM_SHARDS='" << bad
                                             << "'";
  }

  if (saved == nullptr) {
    ::unsetenv("ERBIUM_SHARDS");
  } else {
    ::setenv("ERBIUM_SHARDS", saved_value.c_str(), 1);
  }
}

// ---- Co-partition map properties -------------------------------------------

TEST(CoPartitionMapTest, AnchorsFollowIsaAndWeakEdges) {
  auto schema = MakeFigure4Schema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto map = shard::CoPartitionMap::Build(*schema, Figure4M1(), 4);
  ASSERT_TRUE(map.ok()) << map.status().ToString();

  // Subclasses anchor at the hierarchy root: R3 extends R1 extends R.
  const shard::EntityPlacement* r3 = map->entity("R3");
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(r3->anchor, "R");
  // Weak entities anchor at their owner.
  const shard::EntityPlacement* s1 = map->entity("S1");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->anchor, "S");

  // Co-location: everything anchored at one root shares a shard for
  // equal key prefixes; distinct hierarchies do not co-anchor.
  EXPECT_TRUE(map->CoAnchored("R", "R3"));
  EXPECT_TRUE(map->CoAnchored("R1", "R4"));
  EXPECT_TRUE(map->CoAnchored("S", "S2"));
  EXPECT_FALSE(map->CoAnchored("R", "S"));

  // The routing attributes are the anchor-key prefix of the full key.
  ASSERT_EQ(r3->routing_attrs.size(), 1u);
  EXPECT_EQ(r3->routing_attrs[0], "r_id");
}

TEST(CoPartitionMapTest, RoutingIsDeterministicAndInRange) {
  auto schema = MakeFigure4Schema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto a = shard::CoPartitionMap::Build(*schema, Figure4M1(), 4);
  auto b = shard::CoPartitionMap::Build(*schema, Figure4M1(), 4);
  ASSERT_TRUE(a.ok() && b.ok());
  std::set<int> seen;
  for (int64_t id = 0; id < 256; ++id) {
    std::vector<Value> key = {Value::Int64(id)};
    int shard = a->RouteValues(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    // Same key, same shard — across independently built maps.
    EXPECT_EQ(shard, b->RouteValues(key));
    seen.insert(shard);
  }
  // 256 consecutive keys must not all hash to one shard.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(CoPartitionMapTest, FusedStoragesRejectedAtShardsAboveOne) {
  auto schema = MakeFigure4Schema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  // M6 factorizes R2 with S1 — both endpoints in one structure, which
  // hash routing cannot split.
  Status st = shard::ValidateShardable(*schema, Figure4M6(), 4);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("fused"), std::string::npos)
      << st.ToString();
  // The same spec is fine unsharded.
  EXPECT_TRUE(shard::ValidateShardable(*schema, Figure4M6(), 1).ok());
  EXPECT_TRUE(shard::ValidateShardable(*schema, Figure4M1(), 4).ok());
}

// ---- Router classification table -------------------------------------------

TEST(ShardRouteClassificationTest, StatementKindsByRouteClass) {
  std::unique_ptr<StatementRunner> runner = Figure4Runner(4);
  ASSERT_NE(runner, nullptr);

  struct Case {
    const char* query;
    shard::ShardRouteClass expected;
  };
  const Case kCases[] = {
      // Point lookups route to exactly one shard by key hash; subclass
      // keys route by the inherited root-key prefix.
      {"SELECT r_a1 FROM R WHERE r_id = 42",
       shard::ShardRouteClass::kSingleShard},
      {"SELECT r_id, r3_a1 FROM R3 WHERE r_id = 7",
       shard::ShardRouteClass::kSingleShard},
      // Broadcast scans where every branch touches only its own shard.
      {"SELECT r_id, r_a1 FROM R", shard::ShardRouteClass::kLocalJoin},
      {"SELECT r_id, r_a1 FROM R WHERE r_a1 < 300",
       shard::ShardRouteClass::kLocalJoin},
      // Weak identifying join: S1 co-anchors with its owner S, so the
      // join is provably shard-local on every shard.
      {"SELECT s.s_id, s1.s1_no, s1.s1_a1 FROM S s JOIN S1 s1 ON S_S1",
       shard::ShardRouteClass::kLocalJoin},
      // Aggregates merge partial accumulators at the coordinator.
      {"SELECT count(*) AS n FROM R", shard::ShardRouteClass::kScatterGather},
      {"SELECT r_a4, count(*) AS n, avg(r_a1) AS mean FROM R",
       shard::ShardRouteClass::kScatterGather},
      // Relationship join to a non-co-anchored side: the new side's rows
      // hash by their own key, so its scan unions every shard.
      {"SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS",
       shard::ShardRouteClass::kScatterGather},
      // Theta join: no co-partitioning argument applies.
      {"SELECT a.r_id, b.r_id AS other FROM R3 a JOIN R4 b ON "
       "a.r1_a1 = b.r1_a1",
       shard::ShardRouteClass::kScatterGather},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.query);
    auto outcome = runner->Execute(c.query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->result.shard_count, 4);
    EXPECT_EQ(shard::ShardRouteClassName(outcome->result.shard_route),
              std::string(shard::ShardRouteClassName(c.expected)));
    if (c.expected == shard::ShardRouteClass::kSingleShard) {
      EXPECT_GE(outcome->result.shard_target, 0);
      EXPECT_LT(outcome->result.shard_target, 4);
      // The outcome tag SHOW SESSIONS renders matches the plan's target.
      EXPECT_EQ(outcome->shard, outcome->result.shard_target);
    } else {
      EXPECT_EQ(outcome->result.shard_target, -1);
      EXPECT_EQ(outcome->shard, -1);
    }
  }

  // EXPLAIN carries the routing decision as a note.
  auto explain = runner->Execute("EXPLAIN SELECT count(*) AS n FROM R");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  bool found = false;
  for (const Row& row : explain->result.rows) {
    if (row[0].as_string().find("shard routing: scatter-gather") !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---- Sharded vs serial equivalence -----------------------------------------

const char* kEquivalenceQueries[] = {
    "SELECT r_id, r_a1 FROM R",
    "SELECT r_id, r_a1, r1_a1, r3_a1 FROM R3",
    "SELECT r_id, r2_a1, r2_a2 FROM R2 WHERE r2_a1 < 500",
    "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R",
    "SELECT r_id, unnest(r_mv1) AS v FROM R",
    "SELECT r_id, r_mv1 FROM R WHERE r_id = 42",
    "SELECT r_id, cardinality(r_mv1) AS n FROM R WHERE r_id < 50",
    "SELECT r_a1 FROM R WHERE r_id = 42",
    "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS WHERE s.s_a1 < 400",
    "SELECT r.r_id, s1.s_id, s1.s1_no FROM R2 r JOIN S1 s1 ON R2S1",
    "SELECT s.s_id, s1.s1_no, s1.s1_a1 FROM S s JOIN S1 s1 ON S_S1",
    "SELECT p.r_id, count(*) AS advisees FROM R1 p JOIN R3 c ON R1R3",
    "SELECT r_a4, count(*) AS n, avg(r_a1) AS mean FROM R",
    "SELECT count(*) AS n FROM R3",
    "SELECT a.r_id, b.r_id AS other FROM R3 a JOIN R4 b ON a.r1_a1 = b.r1_a1",
    "SELECT DISTINCT r_a4 FROM R WHERE r_a4 < 5",
    "SELECT r_id, r_a1 FROM R WHERE r_a1 < 300 ORDER BY r_a1 DESC, r_id",
    "SELECT r.r_id, sum(rs_a1) AS total FROM R r JOIN S s ON RS",
    "SELECT count(DISTINCT r_a4) AS n FROM R",
};

void ExpectSameResults(StatementRunner* sharded, StatementRunner* serial,
                       const char* query) {
  SCOPED_TRACE(query);
  auto a = sharded->Execute(query);
  auto b = serial->Execute(query);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->result.ToCanonicalString(), b->result.ToCanonicalString());
}

TEST(ShardedEquivalenceTest, MatchesSerialAcrossQueryBattery) {
  std::unique_ptr<StatementRunner> sharded = Figure4Runner(4);
  std::unique_ptr<StatementRunner> serial = Figure4Runner(1);
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(serial, nullptr);
  for (const char* query : kEquivalenceQueries) {
    ExpectSameResults(sharded.get(), serial.get(), query);
  }
}

TEST(ShardedEquivalenceTest, MatchesSerialAfterEveryRemap) {
  // REMAP on a sharded engine redistributes every instance and edge
  // through the new co-partition map (relationship dominance can flip
  // with the storage choice); results must stay identical to serial.
  std::unique_ptr<StatementRunner> sharded = Figure4Runner(4);
  std::unique_ptr<StatementRunner> serial = Figure4Runner(1);
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(serial, nullptr);
  for (const char* preset : {"m2", "m3", "m4", "m5", "m1"}) {
    SCOPED_TRACE(preset);
    auto a = sharded->Execute(std::string("REMAP ") + preset);
    auto b = serial->Execute(std::string("REMAP ") + preset);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    for (const char* query : kEquivalenceQueries) {
      ExpectSameResults(sharded.get(), serial.get(), query);
    }
  }
}

TEST(ShardedRemapTest, FusedPresetRejectedEngineStaysUsable) {
  std::unique_ptr<StatementRunner> runner = Figure4Runner(4);
  ASSERT_NE(runner, nullptr);
  auto before = runner->Execute("SELECT count(*) AS n FROM R");
  ASSERT_TRUE(before.ok());

  // M6 factorizes R2 with S1 — unshardable; the REMAP must fail without
  // taking the engine down.
  auto remap = runner->Execute("REMAP m6");
  ASSERT_FALSE(remap.ok());
  EXPECT_NE(remap.status().ToString().find("fused"), std::string::npos)
      << remap.status().ToString();

  auto after = runner->Execute("SELECT count(*) AS n FROM R");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(before->result.ToCanonicalString(),
            after->result.ToCanonicalString());
}

// ---- DDL fan-out, insert routing, SHOW SHARDS ------------------------------

TEST(ShardedDdlTest, FanOutCreateThenRoutedInserts) {
  StatementRunner::Options options;
  options.shards = 4;
  auto created = StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<StatementRunner> runner = std::move(created).value();

  ASSERT_TRUE(
      runner->Execute("CREATE ENTITY D ( id INT KEY, v INT )").ok());
  std::set<int> shards_hit;
  for (int id = 0; id < 64; ++id) {
    auto ack = runner->Execute("INSERT D (id = " + std::to_string(id) +
                               ", v = " + std::to_string(id * 3) + ")");
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_GE(ack->shard, 0);
    ASSERT_LT(ack->shard, 4);
    shards_hit.insert(ack->shard);
  }
  // 64 consecutive keys must spread over all four shards.
  EXPECT_EQ(shards_hit.size(), 4u);

  auto rows = runner->Execute("SELECT id, v FROM D");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->result.rows.size(), 64u);
  for (const Row& row : rows->result.rows) {
    EXPECT_EQ(row[1].as_int64(), 3 * row[0].as_int64());
  }

  // Duplicate keys are rejected across shards, not just locally.
  EXPECT_FALSE(runner->Execute("INSERT D (id = 7, v = 0)").ok());
}

TEST(ShardedDdlTest, WireAcknowledgementCarriesRoutedShard) {
  server::ServerOptions options;
  options.port = 0;
  options.runner.shards = 4;
  auto started = server::Server::Start(std::move(options));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<server::Server> srv = std::move(started).value();
  server::Client::Options client_options;
  client_options.port = srv->port();
  client_options.name = "shard-ack";
  auto client = server::Client::Connect(client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_TRUE(
      (*client)->Execute("CREATE ENTITY D ( id INT KEY, v INT )").ok());
  std::set<int> shards_hit;
  for (int id = 0; id < 64; ++id) {
    auto ack = (*client)->Execute("INSERT D (id = " + std::to_string(id) +
                                  ", v = " + std::to_string(id) + ")");
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_GE(ack->shard, 0);
    ASSERT_LT(ack->shard, 4);
    shards_hit.insert(ack->shard);
    // The shard named over the wire is the one a routed read finds the
    // row on.
    auto row = (*client)->Execute("SELECT v FROM D WHERE id = " +
                                  std::to_string(id));
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row->shard, ack->shard);
    ASSERT_EQ(row->result.rows.size(), 1u);
  }
  EXPECT_EQ(shards_hit.size(), 4u);
  EXPECT_TRUE(srv->Stop().ok());
}

TEST(ShowShardsTest, OneRowPerShardInsertsSumMatches) {
  std::unique_ptr<StatementRunner> runner = Figure4Runner(4);
  ASSERT_NE(runner, nullptr);

  auto show = runner->Execute("SHOW SHARDS");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  ASSERT_EQ(show->result.rows.size(), 4u);
  // Column 1 is the per-shard insert counter; the figure4 preload routed
  // every generated instance, so the counters sum to the preload size
  // and at least two shards got a share.
  int64_t total = 0;
  int nonzero = 0;
  for (const Row& row : show->result.rows) {
    total += row[1].as_int64();
    if (row[1].as_int64() > 0) ++nonzero;
  }
  EXPECT_GT(total, 0);
  EXPECT_GE(nonzero, 2);

  // SHOW SHARDS also answers on an unsharded runner: one row.
  std::unique_ptr<StatementRunner> serial = Figure4Runner(1);
  ASSERT_NE(serial, nullptr);
  auto one = serial->Execute("SHOW SHARDS");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->result.rows.size(), 1u);
}

// ---- Sharded ATTACH layout -------------------------------------------------

TEST(ShardedAttachTest, RoundTripAndLayoutChecks) {
  const std::string dir = FreshDir("attach");
  {
    StatementRunner::Options options;
    options.shards = 4;
    options.attach_dir = dir;
    auto created = StatementRunner::Create(std::move(options));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<StatementRunner> runner = std::move(created).value();
    ASSERT_TRUE(
        runner->Execute("CREATE ENTITY P ( id INT KEY, v INT )").ok());
    for (int id = 0; id < 40; ++id) {
      ASSERT_TRUE(runner
                      ->Execute("INSERT P (id = " + std::to_string(id) +
                                ", v = " + std::to_string(id * 7) + ")")
                      .ok());
    }
    auto ckpt = runner->Execute("CHECKPOINT");
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    // Sharded checkpoints report one line per shard.
    EXPECT_EQ(ckpt->result.rows.size(), 4u);
  }

  // The on-disk layout: a SHARDS manifest plus one subdirectory per
  // shard, each with its own WAL namespace.
  EXPECT_TRUE(std::filesystem::exists(dir + "/SHARDS"));
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/shard-" + std::to_string(k)))
        << k;
  }

  // Reopen with the same count: everything recovers.
  {
    StatementRunner::Options options;
    options.shards = 4;
    options.attach_dir = dir;
    auto reopened = StatementRunner::Create(std::move(options));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto rows = (*reopened)->Execute("SELECT id, v FROM P");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->result.rows.size(), 40u);
    for (const Row& row : rows->result.rows) {
      EXPECT_EQ(row[1].as_int64(), 7 * row[0].as_int64());
    }
  }

  // Reopen with a different count: refused, naming the recorded count —
  // silently rerouting lookups against the wrong modulus would read
  // misses as absences.
  {
    StatementRunner::Options options;
    options.shards = 2;
    options.attach_dir = dir;
    auto mismatched = StatementRunner::Create(std::move(options));
    ASSERT_FALSE(mismatched.ok());
    EXPECT_NE(mismatched.status().ToString().find("shards=4"),
              std::string::npos)
        << mismatched.status().ToString();
  }
}

TEST(ShardedAttachTest, RefusesLegacySingleDatabaseLayout) {
  const std::string dir = FreshDir("legacy");
  // A directory created unsharded has a top-level wal.erblog.
  {
    StatementRunner::Options options;
    options.shards = 1;
    options.attach_dir = dir;
    auto created = StatementRunner::Create(std::move(options));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(
        (*created)->Execute("CREATE ENTITY L ( id INT KEY )").ok());
  }
  StatementRunner::Options options;
  options.shards = 4;
  options.attach_dir = dir;
  auto sharded = StatementRunner::Create(std::move(options));
  ASSERT_FALSE(sharded.ok());
  EXPECT_NE(sharded.status().ToString().find("shards=1"), std::string::npos)
      << sharded.status().ToString();
}

// ---- 32-client hammer vs serial oracle -------------------------------------

TEST(ShardedHammerTest, ThirtyTwoClientsMatchSerialOracle) {
  constexpr int kClients = 32;
  constexpr int kPerClient = 64;
  constexpr int kReaders = 4;

  StatementRunner::Options options;
  options.shards = 4;
  auto created = StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<StatementRunner> runner = std::move(created).value();
  ASSERT_TRUE(
      runner->Execute("CREATE ENTITY H ( id INT KEY, v INT )").ok());

  std::atomic<int> failures{0};
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> writers;
  writers.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    writers.emplace_back([&, t] {
      for (int k = 0; k < kPerClient; ++k) {
        int64_t id = static_cast<int64_t>(t) * kPerClient + k;
        auto r = runner->Execute("INSERT H (id = " + std::to_string(id) +
                                 ", v = " + std::to_string(7 * id) + ")");
        if (!r.ok()) ++failures;
      }
    });
  }
  // Readers run scatter-gather scans and point lookups against the live
  // write storm; every observed row must satisfy the invariant, and
  // per-thread scan sizes never shrink (insert-only workload).
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t last = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        auto rows = runner->Execute("SELECT id, v FROM H");
        if (!rows.ok()) {
          ++failures;
          continue;
        }
        if (rows->result.rows.size() < last) ++failures;
        last = rows->result.rows.size();
        for (const Row& row : rows->result.rows) {
          if (row[1].as_int64() != 7 * row[0].as_int64()) ++failures;
        }
        auto point = runner->Execute(
            "SELECT v FROM H WHERE id = " + std::to_string(t * kPerClient));
        if (!point.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Serial oracle: an unsharded runner fed the same inserts must agree
  // on the full table and on merged aggregates (count / sum / avg are
  // the accumulator-merge cases).
  StatementRunner::Options serial_options;
  auto serial_created = StatementRunner::Create(std::move(serial_options));
  ASSERT_TRUE(serial_created.ok());
  std::unique_ptr<StatementRunner> serial =
      std::move(serial_created).value();
  ASSERT_TRUE(
      serial->Execute("CREATE ENTITY H ( id INT KEY, v INT )").ok());
  for (int64_t id = 0; id < kClients * kPerClient; ++id) {
    ASSERT_TRUE(serial
                    ->Execute("INSERT H (id = " + std::to_string(id) +
                              ", v = " + std::to_string(7 * id) + ")")
                    .ok());
  }
  for (const char* query :
       {"SELECT id, v FROM H", "SELECT count(*) AS n FROM H",
        "SELECT count(*) AS n, avg(v) AS mean FROM H",
        "SELECT sum(v) AS s FROM H"}) {
    ExpectSameResults(runner.get(), serial.get(), query);
  }
}

}  // namespace
}  // namespace erbium
