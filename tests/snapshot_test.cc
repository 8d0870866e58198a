// MVCC snapshot-read tests: readers pin published immutable versions and
// never block behind writers, writers to unrelated entity sets run in
// parallel, CHECKPOINT writes its snapshot without stalling reads or
// writes, and the index probes a lookup join re-opens mid-statement
// (on the statement thread or a shard worker) read the statement's pinned
// versions. These run under TSan in CI — the assertions matter, but so
// does the absence of reported races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/statement_runner.h"
#include "durability/fault.h"
#include "exec/join.h"
#include "exec/shard_gather.h"
#include "exec/snapshot.h"

namespace erbium {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/erbium_snapshot_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A runner attached to a fresh directory, with two *unrelated* entity
/// sets: A and B share no hierarchy, ownership, or relationship, so they
/// land in distinct writer lock domains and their insert streams may
/// interleave freely. W is A's weak entity, for key-bound navigations.
std::unique_ptr<api::StatementRunner> TwoSetRunner(
    const std::string& dir, durability::FaultInjector* faults) {
  api::StatementRunner::Options options;
  options.attach_dir = dir;
  options.faults = faults;
  auto runner = api::StatementRunner::Create(std::move(options));
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  if (!runner.ok()) return nullptr;
  auto a = (*runner)->Execute("CREATE ENTITY A ( id INT KEY, a1 INT )");
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  auto b = (*runner)->Execute("CREATE ENTITY B ( id INT KEY, b1 INT )");
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  auto w = (*runner)->Execute(
      "CREATE WEAK ENTITY W OWNED BY A ( no INT PARTIAL KEY, w1 INT )");
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(runner).value();
}

/// N reader threads scanning while two writer streams insert and a
/// checkpointer snapshots every few milliseconds. Readers verify (a) the
/// row-level invariant a1 == 7 * id on every row of every scan — a torn
/// read of a half-applied insert would break it; (b) prefix consistency:
/// a scan sees at least every insert acknowledged before the scan began,
/// and per-thread scan sizes never shrink (insert-only workload); (c)
/// key-bound navigations both ways between an acknowledged A and its one
/// W (index probes re-opened mid-statement) find exactly that pair. At
/// the end a serial oracle checks the exact final state.
TEST(SnapshotHammerTest, ReadersNeverBlockBehindWriters) {
  std::unique_ptr<api::StatementRunner> runner =
      TwoSetRunner(FreshDir("hammer"), nullptr);
  ASSERT_NE(runner, nullptr);

  constexpr int kInserts = 2000;
  constexpr int kReaders = 4;
  std::atomic<int> acked_a{0};
  std::atomic<int> acked_b{0};
  std::atomic<int> failures{0};
  std::atomic<bool> writers_done{false};

  std::atomic<int> acked_w{0};
  std::thread writer_a([&] {
    for (int k = 0; k < kInserts; ++k) {
      auto r = runner->Execute("INSERT A (id = " + std::to_string(k) +
                               ", a1 = " + std::to_string(7 * k) + ")");
      if (!r.ok()) {
        ++failures;
        continue;
      }
      acked_a.store(k + 1, std::memory_order_release);
      auto w = runner->Execute("INSERT W (id = " + std::to_string(k) +
                               ", no = 1, w1 = " + std::to_string(7 * k) +
                               ")");
      if (!w.ok()) {
        ++failures;
        continue;
      }
      acked_w.store(k + 1, std::memory_order_release);
    }
  });
  std::thread writer_b([&] {
    for (int k = 0; k < kInserts; ++k) {
      auto r = runner->Execute("INSERT B (id = " + std::to_string(k) +
                               ", b1 = " + std::to_string(3 * k + 1) + ")");
      if (!r.ok()) {
        ++failures;
        continue;
      }
      acked_b.store(k + 1, std::memory_order_release);
    }
  });
  std::thread checkpointer([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      auto r = runner->Execute("CHECKPOINT");
      if (!r.ok()) ++failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(t);
      size_t last_a = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        int floor_w = acked_w.load(std::memory_order_acquire);
        if (floor_w > 0) {
          std::string k = std::to_string(rng() % floor_w);
          auto down = runner->Execute(
              "SELECT w.no, w.w1 FROM A a JOIN W w ON A_W WHERE a.id = " + k);
          auto up = runner->Execute(
              "SELECT a.id, a.a1 FROM W w JOIN A a ON A_W WHERE w.id = " + k +
              " AND w.no = 1");
          for (const auto* nav : {&down, &up}) {
            if (!nav->ok() || (*nav)->result.rows.size() != 1 ||
                (*nav)->result.rows[0][1].as_int64() != 7 * std::stoll(k)) {
              ++failures;  // lost or torn navigation
            }
          }
        }
        int floor_a = acked_a.load(std::memory_order_acquire);
        auto rows = runner->Execute("SELECT id, a1 FROM A");
        if (!rows.ok()) {
          ++failures;
          continue;
        }
        if (rows->result.rows.size() < static_cast<size_t>(floor_a) ||
            rows->result.rows.size() < last_a) {
          ++failures;  // lost an acknowledged insert, or went backwards
        }
        last_a = rows->result.rows.size();
        for (const Row& row : rows->result.rows) {
          if (row[1].as_int64() != 7 * row[0].as_int64()) {
            ++failures;  // torn read: a1 inconsistent with id
          }
        }
      }
    });
  }

  writer_a.join();
  writer_b.join();
  writers_done.store(true, std::memory_order_release);
  checkpointer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Serial oracle: exactly the acknowledged rows, once each, on both
  // sets, with the invariant intact.
  for (const char* table : {"A", "B"}) {
    auto rows = runner->Execute(std::string("SELECT id FROM ") + table);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::set<int64_t> got;
    for (const Row& row : rows->result.rows) got.insert(row[0].as_int64());
    EXPECT_EQ(got.size(), static_cast<size_t>(kInserts)) << table;
    EXPECT_EQ(rows->result.rows.size(), got.size())
        << "duplicate rows in " << table;
  }
}

/// Regression: a SELECT issued while CHECKPOINT is writing its snapshot
/// must complete without waiting for the write to finish. The fault
/// gate parks CHECKPOINT mid-write-phase (version pins taken, nothing on
/// disk yet); reads AND writes proceed, and the insert that happened
/// during the write phase survives reopen via the compacted WAL.
TEST(SnapshotCheckpointTest, SelectCompletesMidCheckpoint) {
  const std::string dir = FreshDir("mid_checkpoint");
  durability::FaultInjector faults;
  std::unique_ptr<api::StatementRunner> runner = TwoSetRunner(dir, &faults);
  ASSERT_NE(runner, nullptr);
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(runner
                    ->Execute("INSERT A (id = " + std::to_string(k) +
                              ", a1 = " + std::to_string(7 * k) + ")")
                    .ok());
  }

  faults.ArmGate("checkpoint.writing");
  std::thread checkpointer([&] {
    auto r = runner->Execute("CHECKPOINT");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  faults.WaitUntilBlocked();

  // The checkpoint thread is parked inside its write phase. Reads
  // complete now — before this change they queued behind CHECKPOINT's
  // exclusive lock for the whole snapshot write.
  auto start = std::chrono::steady_clock::now();
  auto rows = runner->Execute("SELECT id FROM A");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->result.rows.size(), 50u);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));

  // Writes proceed too, and are read-your-writes visible.
  ASSERT_TRUE(runner->Execute("INSERT A (id = 1000, a1 = 7000)").ok());
  auto own = runner->Execute("SELECT a1 FROM A WHERE id = 1000");
  ASSERT_TRUE(own.ok());
  ASSERT_EQ(own->result.rows.size(), 1u);
  EXPECT_EQ(own->result.rows[0][0].as_int64(), 7000);

  faults.ReleaseGate();
  checkpointer.join();

  // The snapshot froze the pre-insert image; the concurrent insert lives
  // on in the compacted WAL and must survive reopen.
  runner.reset();
  api::StatementRunner::Options reopen;
  reopen.attach_dir = dir;
  auto reopened = api::StatementRunner::Create(std::move(reopen));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& info = (*reopened)->durable()->recovery_info();
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.records_replayed, 1u);  // exactly the mid-write INSERT
  auto all = (*reopened)->Execute("SELECT id FROM A");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->result.rows.size(), 51u);
}

/// A driver table T(k) of `n` rows and a probe table U(k, v) indexed on
/// k, holding a partner for every key of T but the last.
struct ProbeTables {
  explicit ProbeTables(int n) {
    for (int k = 0; k < n; ++k) {
      EXPECT_TRUE(t.Insert({Value::Int64(k)}).ok());
      if (k + 1 < n) {
        EXPECT_TRUE(u.Insert({Value::Int64(k), Value::Int64(7 * k)}).ok());
      }
    }
    EXPECT_TRUE(u.CreateIndex("U_k", {"k"}, /*unique=*/true).ok());
  }

  /// T ⋈ U as a lookup join: one re-open of U's index probe per T row.
  OperatorPtr Join() {
    KeySlot slot = std::make_shared<IndexKey>();
    return std::make_unique<LookupJoinOp>(
        std::make_unique<SeqScan>(&t),
        std::make_unique<IndexLookup>(&u, std::vector<int>{0}, slot),
        std::vector<ExprPtr>{MakeColumnRef(0, "k")}, slot);
  }

  Table t{TableSchema("T", {Column{"k", Type::Int64(), false}})};
  Table u{TableSchema("U", {Column{"k", Type::Int64(), false},
                            Column{"v", Type::Int64(), false}})};
};

/// A U row published after the statement opened must stay invisible to
/// the probes the lookup join re-opens later in that statement — on the
/// statement thread, and on a shard worker draining a branch. The shard
/// branch produces far more rows than the gather's exchange buffers, so
/// its worker cannot reach the last T row before the consumer drains:
/// that probe runs strictly after the insert.
TEST(SnapshotLookupJoinTest, ReopenedProbesReadTheStatementPin) {
  constexpr int kRows = 8000;
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "shard worker" : "statement thread");
    ProbeTables tables(kRows);
    OperatorPtr plan = tables.Join();
    if (sharded) {
      std::vector<OperatorPtr> branches;
      branches.push_back(std::move(plan));
      plan = std::make_unique<ShardGatherOp>(std::move(branches));
    }
    size_t rows = 0;
    {
      exec::ReadSnapshot statement;
      ASSERT_TRUE(plan->Open().ok());
      ASSERT_TRUE(tables.u
                      .Insert({Value::Int64(kRows - 1),
                               Value::Int64(7 * (kRows - 1))})
                      .ok());
      Row row;
      while (plan->Next(&row)) {
        ++rows;
        EXPECT_EQ(row[2].as_int64(), 7 * row[0].as_int64());
      }
    }
    EXPECT_EQ(rows, static_cast<size_t>(kRows - 1));
    // The next statement sees the partner.
    exec::ReadSnapshot next;
    auto all = CollectRows(plan.get());
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->size(), static_cast<size_t>(kRows));
  }
}

}  // namespace
}  // namespace erbium
