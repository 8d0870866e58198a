// The paper's core claim operationalized as a property test: a logical
// ERQL query compiles to very different physical plans under M1..M6, but
// must always produce the same logical result (logical data
// independence). Every query below runs under all six mappings and its
// canonicalized output is compared against the M1 baseline.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "api/statement_runner.h"
#include "erql/query_engine.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

const char* kQueries[] = {
    // Plain scans and attribute access (inherited + own).
    "SELECT r_id, r_a1 FROM R",
    "SELECT r_id, r_a1, r1_a1, r3_a1 FROM R3",
    "SELECT r_id, r2_a1, r2_a2 FROM R2 WHERE r2_a1 < 500",
    // Multi-valued attributes as arrays and unnested (E1/E2 shapes).
    "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R",
    "SELECT r_id, unnest(r_mv1) AS v FROM R",
    // Point lookup by key (E3 shape).
    "SELECT r_id, r_mv1 FROM R WHERE r_id = 42",
    // Array functions (E4 shape).
    "SELECT r_id, array_intersect(r_mv1, r_mv2) AS common FROM R",
    "SELECT r_id, cardinality(r_mv1) AS n FROM R WHERE r_id < 50",
    // Hierarchy scans with predicates (E5/E6 shapes).
    "SELECT r_id, r_a4 FROM R WHERE r_a4 < 10",
    "SELECT r_id, r3_a1, r1_a1 FROM R3 WHERE r3_a1 < 800 AND r1_a1 < 800",
    // Relationship joins.
    "SELECT r.r_id, s.s_id, rs_a1 FROM R r JOIN S s ON RS WHERE s.s_a1 < "
    "5000",
    "SELECT r.r_id, s1.s_id, s1.s1_no FROM R2 r JOIN S1 s1 ON R2S1",
    // Weak entity access through the identifying relationship.
    "SELECT s.s_id, s1.s1_no, s1.s1_a1 FROM S s JOIN S1 s1 ON S_S1",
    // Aggregates with inferred group by (paper Section 3's advisor query
    // shape: average per parent).
    "SELECT p.r_id, count(*) AS advisees FROM R1 p JOIN R3 c ON R1R3",
    "SELECT r_a4, count(*) AS n, avg(r_a1) AS mean FROM R",
    "SELECT count(*) AS n FROM R3",
    // Nested outputs: array_agg of structs (hierarchical result).
    "SELECT s.s_id, array_agg(struct(no: s1.s1_no, a: s1.s1_a1)) AS "
    "sections FROM S s JOIN S1 s1 ON S_S1",
    // Theta join.
    "SELECT a.r_id, b.r_id AS other FROM R3 a JOIN R4 b ON a.r1_a1 = "
    "b.r1_a1 WHERE a.r_id < 40",
    // Distinct / order by / limit plumbing.
    "SELECT DISTINCT r_a4 FROM R WHERE r_a4 < 5",
    "SELECT r_id, r_a1 FROM R WHERE r_a1 < 300 ORDER BY r_a1 DESC, r_id "
    "LIMIT 17",
    // Aggregates over relationship attributes.
    "SELECT r.r_id, sum(rs_a1) AS total FROM R r JOIN S s ON RS",
    // count(distinct ...).
    "SELECT count(DISTINCT r_a4) AS n FROM R",
};

class ErqlEquivalenceTest : public ::testing::TestWithParam<MappingSpec> {
 protected:
  static Figure4Config Config() {
    Figure4Config config;
    config.num_r = 250;
    config.num_s = 60;
    return config;
  }

  void SetUp() override {
    auto db = MakeFigure4Database(GetParam(), Config(), &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  std::shared_ptr<ERSchema> schema_;
  std::unique_ptr<MappedDatabase> db_;
};

INSTANTIATE_TEST_SUITE_P(
    Figure4, ErqlEquivalenceTest,
    ::testing::ValuesIn(Figure4AllMappings()),
    [](const ::testing::TestParamInfo<MappingSpec>& info) {
      return info.param.name;
    });

TEST_P(ErqlEquivalenceTest, AllQueriesMatchM1Baseline) {
  static std::map<std::string, std::string>* baseline = nullptr;
  bool is_baseline_run = baseline == nullptr;
  if (is_baseline_run) baseline = new std::map<std::string, std::string>();
  for (const char* text : kQueries) {
    auto result = erql::QueryEngine::Execute(db_.get(), text);
    ASSERT_TRUE(result.ok())
        << "mapping " << GetParam().name << ", query: " << text << "\n"
        << result.status().ToString();
    std::string canonical = result->ToCanonicalString();
    EXPECT_FALSE(result->rows.empty()) << "empty result for: " << text;
    if (is_baseline_run) {
      (*baseline)[text] = canonical;
    } else {
      EXPECT_EQ((*baseline)[text], canonical)
          << "mapping " << GetParam().name << " diverges on: " << text;
    }
  }
}

TEST_P(ErqlEquivalenceTest, PlansDifferButResultsAgree) {
  // Sanity that the translator really uses different physical plans: the
  // hierarchy scan plan under M1 contains joins, under M3 a filter on
  // the single table, under M4 a union.
  auto compiled = erql::QueryEngine::Compile(
      db_.get(), "SELECT r_id, r_a1, r1_a1, r3_a1 FROM R3");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::string plan = PrintPlan(*compiled->plan);
  const std::string& name = GetParam().name;
  if (name == "M1") {
    EXPECT_NE(plan.find("IndexJoin"), std::string::npos) << plan;
  } else if (name == "M3") {
    EXPECT_NE(plan.find("SeqScan(R)"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("IndexJoin"), std::string::npos) << plan;
  } else if (name == "M4") {
    EXPECT_NE(plan.find("SeqScan(R3)"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("Union"), std::string::npos) << plan;  // leaf class
  }
  // Superclass scan under M4 unions the subtree.
  compiled = erql::QueryEngine::Compile(db_.get(),
                                        "SELECT r_id, r1_a1 FROM R1");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  plan = PrintPlan(*compiled->plan);
  if (name == "M4") {
    EXPECT_NE(plan.find("UnionAll"), std::string::npos) << plan;
  }
  // Point lookups go through the index under every mapping.
  compiled = erql::QueryEngine::Compile(
      db_.get(), "SELECT r_id, r_a1 FROM R WHERE r_id = 42");
  ASSERT_TRUE(compiled.ok());
  plan = PrintPlan(*compiled->plan);
  if (name != "M6") {
    EXPECT_NE(plan.find("IndexLookup"), std::string::npos) << plan;
  }
}

// ---- Key-bound navigations -------------------------------------------------
// A navigation whose outer alias pins its full key compiles to index
// probes (LookupJoinOp over LookupRelationship / LookupEntity /
// LookupWeakByOwner). Each shape below runs once in that key-bound form
// and once with the key hidden behind arithmetic (`k + 0 = K`), which is
// not a pinned key and keeps the hash-join plan; both must return the
// same multiset under every mapping and shard count.

struct NavigationShape {
  const char* name;
  const char* select_from;    // everything before WHERE
  const char* key_bound;      // WHERE clause pinning the outer full key
  const char* not_key_bound;  // the same predicate, unpinned
  bool two_part_key;          // %1 / %2 are (owner key, partial key)
};

const NavigationShape kNavigationShapes[] = {
    {"RS from R", "SELECT s.s_id, rs_a1, s.s_a1, s.s_a2 FROM R r JOIN S s ON RS",
     "r.r_id = %1", "r.r_id + 0 = %1", false},
    {"RS from S",
     "SELECT r.r_id, rs_a1, r.r_a1, r.r_mv1 FROM S s JOIN R r ON RS",
     "s.s_id = %1", "s.s_id + 0 = %1", false},
    {"R1R3 one side bound",
     "SELECT c.r_id, c.r3_a1, c.r_a4 FROM R1 p JOIN R3 c ON R1R3",
     "p.r_id = %1", "p.r_id + 0 = %1", false},
    {"R1R3 many side bound",
     "SELECT p.r_id, p.r1_a1, p.r_mv2 FROM R3 c JOIN R1 p ON R1R3",
     "c.r_id = %1", "c.r_id + 0 = %1", false},
    {"S_S1 owner bound",
     "SELECT s1.s1_no, s1.s1_a1, s1.s1_a2 FROM S s JOIN S1 s1 ON S_S1",
     "s.s_id = %1", "s.s_id + 0 = %1", false},
    {"S_S1 weak bound", "SELECT s.s_id, s.s_a1 FROM S1 s1 JOIN S s ON S_S1",
     "s1.s_id = %1 AND s1.s1_no = %2", "s1.s_id + 0 = %1 AND s1.s1_no = %2",
     true},
    {"R2S1 from R2", "SELECT s1.s_id, s1.s1_no FROM R2 r JOIN S1 s1 ON R2S1",
     "r.r_id = %1", "r.r_id + 0 = %1", false},
    // The R2S1 leg leaves a point-bound alias that is not the FROM alias,
    // so under M6 / M6pg it probes the fused storage (scan + filter).
    {"S_S1 then R2S1",
     "SELECT r.r_id, r.r2_a1, s.s_a1 FROM S1 s1 JOIN S s ON S_S1 "
     "JOIN R2 r ON R2S1",
     "s1.s_id = %1 AND s1.s1_no = %2", "s1.s_id + 0 = %1 AND s1.s1_no = %2",
     true},
    {"RS then S_S1",
     "SELECT s.s_id, rs_a1, s1.s1_no FROM R r JOIN S s ON RS "
     "JOIN S1 s1 ON S_S1",
     "r.r_id = %1", "r.r_id + 0 = %1", false},
};

std::string Bind(std::string text, int64_t key, int64_t partial) {
  for (const auto& [mark, value] :
       {std::pair<std::string, int64_t>{"%1", key}, {"%2", partial}}) {
    for (size_t at = text.find(mark); at != std::string::npos;
         at = text.find(mark)) {
      text.replace(at, mark.size(), std::to_string(value));
    }
  }
  return text;
}

struct NavigationCase {
  std::string preset;  // REMAP preset ("m1" .. "m6", "m6pg")
  int shards;
};

class NavigationEquivalenceTest
    : public ::testing::TestWithParam<NavigationCase> {};

// Fused storages (M6, M6pg) cannot be sharded, so they run at one shard.
INSTANTIATE_TEST_SUITE_P(
    Figure4, NavigationEquivalenceTest,
    ::testing::Values(NavigationCase{"m1", 1}, NavigationCase{"m2", 1},
                      NavigationCase{"m3", 1}, NavigationCase{"m4", 1},
                      NavigationCase{"m5", 1}, NavigationCase{"m6", 1},
                      NavigationCase{"m6pg", 1}, NavigationCase{"m1", 4},
                      NavigationCase{"m2", 4}, NavigationCase{"m3", 4},
                      NavigationCase{"m4", 4}, NavigationCase{"m5", 4}),
    [](const ::testing::TestParamInfo<NavigationCase>& info) {
      return info.param.preset + "_shards" +
             std::to_string(info.param.shards);
    });

TEST_P(NavigationEquivalenceTest, KeyBoundMatchesHashJoinPlan) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 160;
  options.figure4_num_s = 40;
  options.shards = GetParam().shards;
  auto created = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<api::StatementRunner> runner = std::move(created).value();
  // Entities with no edges at all, inserted before the remap so every
  // storage carries them.
  for (const char* insert :
       {"INSERT R (r_id = 9001, r_a1 = 1, r_a4 = 1)",
        "INSERT R1 (r_id = 9002, r_a1 = 2, r1_a1 = 2)",
        "INSERT R2 (r_id = 9003, r_a1 = 3, r2_a1 = 3)",
        "INSERT S (s_id = 9004, s_a1 = 4)",
        "INSERT S1 (s_id = 9004, s1_no = 1, s1_a1 = 5)"}) {
    ASSERT_TRUE(runner->Execute(insert).ok()) << insert;
  }
  if (GetParam().preset != "m1") {
    auto remap = runner->Execute("REMAP " + GetParam().preset);
    ASSERT_TRUE(remap.ok()) << remap.status().ToString();
  }
  std::vector<int64_t> keys;
  for (int64_t k = 1; k <= 24; ++k) keys.push_back(k);
  keys.insert(keys.end(), {9001, 9002, 9003, 9004, 123456});  // 123456: none

  for (const NavigationShape& shape : kNavigationShapes) {
    SCOPED_TRACE(shape.name);
    int empty = 0;
    int non_empty = 0;
    for (int64_t key : keys) {
      for (int64_t partial : shape.two_part_key ? std::vector<int64_t>{1, 2, 9}
                                                : std::vector<int64_t>{0}) {
        std::string bound = Bind(std::string(shape.select_from) + " WHERE " +
                                     shape.key_bound,
                                 key, partial);
        std::string unbound = Bind(std::string(shape.select_from) +
                                       " WHERE " + shape.not_key_bound,
                                   key, partial);
        auto got = runner->Execute(bound);
        auto want = runner->Execute(unbound);
        ASSERT_TRUE(got.ok()) << bound << "\n" << got.status().ToString();
        ASSERT_TRUE(want.ok()) << unbound << "\n" << want.status().ToString();
        EXPECT_EQ(got->result.ToCanonicalString(),
                  want->result.ToCanonicalString())
            << bound;
        (got->result.rows.empty() ? empty : non_empty) += 1;
      }
    }
    // Every shape saw keys with edges and keys without (or missing).
    EXPECT_GT(empty, 0);
    EXPECT_GT(non_empty, 0);
  }
}

// Under shards > 1 a navigation probes only where its edges are
// branch-local: edges live with the relationship's dominant side, so a
// bound non-dominant side (R1R3's one side: the FK sits on R3) keeps the
// cross-shard hash join.
TEST(NavigationShardingTest, ProbesOnlyBranchLocalJoins) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 80;
  options.figure4_num_s = 20;
  options.shards = 4;
  auto created = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<api::StatementRunner> runner = std::move(created).value();
  auto plan_of = [&](const std::string& query) {
    auto explained = runner->Execute("EXPLAIN " + query);
    EXPECT_TRUE(explained.ok()) << explained.status().ToString();
    std::string out;
    if (explained.ok()) {
      for (const Row& row : explained->result.rows) out += row[0].ToString();
    }
    return out;
  };
  for (const char* local :
       {"SELECT s.s_id FROM R r JOIN S s ON RS WHERE r.r_id = 7",
        "SELECT c.r_id FROM R3 c JOIN R1 p ON R1R3 WHERE c.r_id = 7",
        "SELECT s1.s1_no FROM S s JOIN S1 s1 ON S_S1 WHERE s.s_id = 3"}) {
    std::string plan = plan_of(local);
    EXPECT_NE(plan.find("LookupJoin"), std::string::npos) << local << plan;
    EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << local << plan;
  }
  std::string plan =
      plan_of("SELECT c.r_id FROM R1 p JOIN R3 c ON R1R3 WHERE p.r_id = 7");
  EXPECT_EQ(plan.find("LookupJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

}  // namespace
}  // namespace erbium
