#include "exec/shard_gather.h"

#include "common/thread_pool.h"
#include "exec/exchange.h"
#include "exec/snapshot.h"

namespace erbium {

namespace {

// Same batch/backpressure shape as GatherOp's exchange.
constexpr size_t kShardBatchRows = 1024;
constexpr size_t kMaxQueuedBatchesPerBranch = 4;

}  // namespace

// ---- ShardGatherOp ----------------------------------------------------------

ShardGatherOp::ShardGatherOp(std::vector<OperatorPtr> branches)
    : branches_(std::move(branches)) {
  output_ = branches_.front()->output_columns();
}

ShardGatherOp::~ShardGatherOp() { Shutdown(); }

void ShardGatherOp::Shutdown() {
  if (exchange_ != nullptr) exchange_->Cancel();
  for (std::future<void>& f : futures_) {
    if (f.valid()) f.wait();
  }
  futures_.clear();
  exchange_.reset();
}

void ShardGatherOp::ReleaseState() {
  Shutdown();
  Operator::ReleaseState();
}

Status ShardGatherOp::OpenImpl() {
  Shutdown();
  // Branch Opens run serially on the statement thread: every version the
  // branch scans read resolves through the ambient snapshot here, never
  // on a pool worker.
  for (const OperatorPtr& branch : branches_) {
    ERBIUM_RETURN_NOT_OK(branch->Open());
  }
  exec::ReadSnapshot::PinMap pins = exec::ReadSnapshot::CurrentPins();
  ThreadPool::Shared()->EnsureWorkers(static_cast<int>(branches_.size()));
  exchange_ = std::make_unique<RowExchange>(branches_.size(),
                                            kMaxQueuedBatchesPerBranch);
  futures_.reserve(branches_.size());
  for (size_t i = 0; i < branches_.size(); ++i) {
    futures_.push_back(ThreadPool::Shared()->Submit(
        [this, i, pins] { WorkerMain(i, pins); }));
  }
  current_batch_.clear();
  batch_pos_ = 0;
  return Status::OK();
}

void ShardGatherOp::WorkerMain(size_t branch,
                               exec::ReadSnapshot::PinMap pins) {
  // The statement's pins, held until this producer returns: a consumer
  // that stops early (LIMIT) leaves producers running past the
  // statement's own snapshot scope.
  exec::ReadSnapshot snapshot(std::move(pins));
  RowExchange* ex = exchange_.get();
  std::vector<Row> batch;
  batch.reserve(kShardBatchRows);
  Row row;
  while (!ex->cancelled() && branches_[branch]->Next(&row)) {
    batch.push_back(std::move(row));
    if (batch.size() >= kShardBatchRows) {
      if (!ex->Push(branch, std::move(batch))) break;
      batch = std::vector<Row>();
      batch.reserve(kShardBatchRows);
    }
  }
  if (!batch.empty()) ex->Push(branch, std::move(batch));
  ex->MarkDone(branch);
}

bool ShardGatherOp::NextImpl(Row* out) {
  while (true) {
    if (batch_pos_ < current_batch_.size()) {
      *out = std::move(current_batch_[batch_pos_++]);
      return true;
    }
    current_batch_.clear();
    batch_pos_ = 0;
    if (exchange_ == nullptr || !exchange_->PopBatch(&current_batch_)) {
      return false;
    }
    ++stats_.batches;
  }
}

std::string ShardGatherOp::name() const {
  return "ShardGather(shards=" + std::to_string(branches_.size()) + ")";
}

std::vector<const Operator*> ShardGatherOp::children() const {
  std::vector<const Operator*> out;
  out.reserve(branches_.size());
  for (const OperatorPtr& branch : branches_) out.push_back(branch.get());
  return out;
}

size_t ShardGatherOp::EstimatedRowCount() const {
  size_t total = 0;
  for (const OperatorPtr& branch : branches_) {
    total += branch->EstimatedRowCount();
  }
  return total;
}

// ---- ShardMergeAggregateOp --------------------------------------------------

ShardMergeAggregateOp::ShardMergeAggregateOp(
    std::vector<OperatorPtr> branches, std::vector<ExprPtr> group_exprs,
    std::vector<std::string> group_names,
    std::vector<AggregateSpec> aggregates)
    : branches_(std::move(branches)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)) {
  output_ = AggregateOutputColumns(group_names, aggregates_);
}

ShardMergeAggregateOp::~ShardMergeAggregateOp() = default;

Status ShardMergeAggregateOp::OpenImpl() {
  merged_ = std::make_unique<AggGroupTable>();
  next_group_ = 0;
  for (const OperatorPtr& branch : branches_) {
    ERBIUM_RETURN_NOT_OK(branch->Open());
  }
  ThreadPool::Shared()->EnsureWorkers(static_cast<int>(branches_.size()));
  // One partial per branch, accumulated on the pool and joined before
  // Open returns — aggregation is a pipeline breaker, so unlike the
  // gather above no worker can outlive the statement. Group expressions
  // and accumulators are shared across the tasks read-only, exactly as
  // ParallelHashAggregateOp shares them across its morsel workers. Each
  // task reads the statement's pins, for the operators it re-opens.
  exec::ReadSnapshot::PinMap pins = exec::ReadSnapshot::CurrentPins();
  std::vector<AggGroupTable> partials(branches_.size());
  std::vector<std::future<void>> futures;
  futures.reserve(branches_.size());
  for (size_t i = 0; i < branches_.size(); ++i) {
    futures.push_back(ThreadPool::Shared()->Submit([this, i, &partials,
                                                    &pins] {
      exec::ReadSnapshot snapshot(pins);
      Row row;
      while (branches_[i]->Next(&row)) {
        partials[i].Accumulate(group_exprs_, aggregates_, row);
      }
    }));
  }
  for (std::future<void>& f : futures) f.wait();
  // Merge in branch (= shard) order: accumulator merge, not finalize-
  // then-reaggregate, so avg/count stay exact.
  for (AggGroupTable& partial : partials) {
    merged_->Merge(aggregates_, std::move(partial));
  }
  // Global aggregate over empty input still emits one row.
  if (group_exprs_.empty() && merged_->states.empty()) {
    AggGroupState state;
    state.aggs.resize(aggregates_.size());
    merged_->states.push_back(std::move(state));
  }
  return Status::OK();
}

bool ShardMergeAggregateOp::NextImpl(Row* out) {
  if (merged_ == nullptr || next_group_ >= merged_->states.size()) {
    return false;
  }
  merged_->EmitGroup(next_group_++, aggregates_, out);
  return true;
}

std::string ShardMergeAggregateOp::name() const {
  std::string out = "ShardMergeAggregate(shards=" +
                    std::to_string(branches_.size()) + "; groups=";
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_exprs_[i]->ToString();
  }
  out += "; aggs=";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggKindName(aggregates_[i].kind);
  }
  out += ")";
  return out;
}

std::vector<const Operator*> ShardMergeAggregateOp::children() const {
  std::vector<const Operator*> out;
  out.reserve(branches_.size());
  for (const OperatorPtr& branch : branches_) out.push_back(branch.get());
  return out;
}

}  // namespace erbium
