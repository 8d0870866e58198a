#include "exec/join.h"

#include "exec/parallel.h"
#include "exec/snapshot.h"

namespace erbium {

namespace {

/// Appends src to dst.
void AppendRow(const Row& src, Row* dst) {
  dst->insert(dst->end(), src.begin(), src.end());
}

void AppendNulls(size_t n, Row* dst) {
  for (size_t i = 0; i < n; ++i) dst->push_back(Value::Null());
}

bool KeyHasNull(const std::vector<Value>& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

std::vector<Value> EvalKeys(const std::vector<ExprPtr>& exprs,
                            const Row& row) {
  std::vector<Value> key;
  key.reserve(exprs.size());
  for (const ExprPtr& e : exprs) key.push_back(e->Eval(row));
  return key;
}

std::vector<Column> ConcatColumns(const std::vector<Column>& a,
                                  const std::vector<Column>& b) {
  std::vector<Column> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

// ---- HashJoinOp -------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, JoinType join_type)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      join_type_(join_type) {
  right_arity_ = right_->output_columns().size();
  output_ = ConcatColumns(left_->output_columns(), right_->output_columns());
  if (join_type_ == JoinType::kLeftOuter) {
    for (size_t i = left_->output_columns().size(); i < output_.size(); ++i) {
      output_[i].nullable = true;
    }
  }
}

Status HashJoinOp::OpenImpl() {
  hash_table_.clear();
  current_matches_ = nullptr;
  match_index_ = 0;
  ERBIUM_RETURN_NOT_OK(right_->Open());
  // Pre-size the build table from the child's cardinality estimate to
  // avoid rehashing during the build (the estimate is an upper bound; a
  // key-duplicate-heavy build just ends up with spare buckets).
  size_t build_hint = right_->EstimatedRowCount();
  if (build_hint > 0) hash_table_.reserve(build_hint);
  Row row;
  while (right_->Next(&row)) {
    std::vector<Value> key = EvalKeys(right_keys_, row);
    if (KeyHasNull(key)) continue;  // null never joins
    hash_table_[std::move(key)].push_back(std::move(row));
  }
  return left_->Open();
}

bool HashJoinOp::NextImpl(Row* out) {
  while (true) {
    if (current_matches_ != nullptr && match_index_ < current_matches_->size()) {
      *out = current_left_;
      AppendRow((*current_matches_)[match_index_++], out);
      return true;
    }
    current_matches_ = nullptr;
    if (!left_->Next(&current_left_)) return false;
    std::vector<Value> key = EvalKeys(left_keys_, current_left_);
    bool null_key = KeyHasNull(key);
    auto it = null_key ? hash_table_.end() : hash_table_.find(key);
    if (it == hash_table_.end()) {
      if (join_type_ == JoinType::kLeftOuter) {
        *out = current_left_;
        AppendNulls(right_arity_, out);
        return true;
      }
      continue;
    }
    current_matches_ = &it->second;
    match_index_ = 0;
  }
}

void HashJoinOp::ReleaseState() {
  decltype(hash_table_)().swap(hash_table_);
  current_matches_ = nullptr;
  Operator::ReleaseState();
}

OperatorPtr HashJoinOp::CloneForWorker(ParallelContext* ctx) const {
  // Inside a join-build pipeline a probe would make a pool task wait on
  // another pool task; decline and let that join run serially.
  if (!ctx->allow_join_probe()) return nullptr;
  OperatorPtr probe = left_->CloneForWorker(ctx);
  if (probe == nullptr) return nullptr;
  std::shared_ptr<JoinBuildState> state =
      ctx->JoinStateFor(this, right_.get(), right_keys_);
  return std::make_unique<HashJoinProbeOp>(
      std::move(probe), left_keys_, std::move(state), join_type_, output_,
      right_arity_, "Parallel" + name());
}

std::string HashJoinOp::name() const {
  std::string out =
      join_type_ == JoinType::kLeftOuter ? "HashLeftJoin(" : "HashJoin(";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  out += ")";
  return out;
}

// ---- NestedLoopJoinOp --------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate, JoinType join_type)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      join_type_(join_type) {
  right_arity_ = right_->output_columns().size();
  output_ = ConcatColumns(left_->output_columns(), right_->output_columns());
}

Status NestedLoopJoinOp::OpenImpl() {
  if (!right_materialized_) {
    ERBIUM_RETURN_NOT_OK(right_->Open());
    Row row;
    while (right_->Next(&row)) right_rows_.push_back(std::move(row));
    right_materialized_ = true;
  }
  has_left_ = false;
  return left_->Open();
}

bool NestedLoopJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!has_left_) {
      if (!left_->Next(&current_left_)) return false;
      has_left_ = true;
      left_matched_ = false;
      right_index_ = 0;
    }
    while (right_index_ < right_rows_.size()) {
      const Row& right_row = right_rows_[right_index_++];
      Row combined = current_left_;
      AppendRow(right_row, &combined);
      if (predicate_ == nullptr || EvalPredicate(*predicate_, combined)) {
        left_matched_ = true;
        *out = std::move(combined);
        return true;
      }
    }
    has_left_ = false;
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      *out = current_left_;
      AppendNulls(right_arity_, out);
      return true;
    }
  }
}

void NestedLoopJoinOp::ReleaseState() {
  std::vector<Row>().swap(right_rows_);
  right_materialized_ = false;
  Operator::ReleaseState();
}

std::string NestedLoopJoinOp::name() const {
  std::string out = join_type_ == JoinType::kLeftOuter ? "NestedLoopLeftJoin"
                                                       : "NestedLoopJoin";
  if (predicate_ != nullptr) out += "(" + predicate_->ToString() + ")";
  return out;
}

// ---- IndexJoinOp -------------------------------------------------------------

IndexJoinOp::IndexJoinOp(OperatorPtr left, const Table* right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<int> right_key_columns, JoinType join_type)
    : left_(std::move(left)),
      right_(right),
      left_keys_(std::move(left_keys)),
      right_key_columns_(std::move(right_key_columns)),
      join_type_(join_type) {
  right_arity_ = right->schema().num_columns();
  output_ =
      ConcatColumns(left_->output_columns(), right->schema().columns());
}

Status IndexJoinOp::OpenImpl() {
  right_version_ = exec::ResolveVersion(right_, &owned_pin_);
  has_left_ = false;
  matches_.clear();
  match_index_ = 0;
  return left_->Open();
}

bool IndexJoinOp::NextImpl(Row* out) {
  while (true) {
    if (has_left_ && match_index_ < matches_.size()) {
      *out = current_left_;
      AppendRow(*right_version_->row(matches_[match_index_++]), out);
      return true;
    }
    has_left_ = false;
    if (!left_->Next(&current_left_)) return false;
    matches_.clear();
    match_index_ = 0;
    std::vector<Value> key = EvalKeys(left_keys_, current_left_);
    if (!KeyHasNull(key)) {
      right_->LookupEqualIn(*right_version_, right_key_columns_, key,
                            &matches_);
    }
    if (matches_.empty()) {
      if (join_type_ == JoinType::kLeftOuter) {
        *out = current_left_;
        AppendNulls(right_arity_, out);
        return true;
      }
      continue;
    }
    has_left_ = true;
  }
}

OperatorPtr IndexJoinOp::CloneForWorker(ParallelContext* ctx) const {
  OperatorPtr left = left_->CloneForWorker(ctx);
  if (left == nullptr) return nullptr;
  // Probing the right table is read-only; workers share it directly.
  ctx->RegisterTable(right_);
  return std::make_unique<IndexJoinOp>(std::move(left), right_, left_keys_,
                                       right_key_columns_, join_type_);
}

std::string IndexJoinOp::name() const {
  std::string out =
      join_type_ == JoinType::kLeftOuter ? "IndexLeftJoin(" : "IndexJoin(";
  out += right_->name();
  out += ")";
  return out;
}

// ---- LookupJoinOp ------------------------------------------------------------

LookupJoinOp::LookupJoinOp(OperatorPtr left, OperatorPtr inner,
                           std::vector<ExprPtr> left_keys, KeySlot slot)
    : left_(std::move(left)),
      inner_(std::move(inner)),
      left_keys_(std::move(left_keys)),
      slot_(std::move(slot)) {
  output_ = ConcatColumns(left_->output_columns(), inner_->output_columns());
}

Status LookupJoinOp::OpenImpl() {
  slot_->clear();
  has_left_ = false;
  ERBIUM_RETURN_NOT_OK(inner_->Open());
  return left_->Open();
}

bool LookupJoinOp::NextImpl(Row* out) {
  while (true) {
    if (has_left_) {
      if (inner_->Next(&inner_row_)) {
        *out = current_left_;
        AppendRow(inner_row_, out);
        return true;
      }
      has_left_ = false;
    }
    if (!left_->Next(&current_left_)) return false;
    *slot_ = EvalKeys(left_keys_, current_left_);
    if (KeyHasNull(*slot_)) continue;
    // The priming Open() in OpenImpl already surfaced any plan error; a
    // re-open of the same plan differs only in the key it probes.
    if (!inner_->Open().ok()) return false;
    has_left_ = true;
  }
}

std::string LookupJoinOp::name() const {
  std::string out = "LookupJoin(";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += left_keys_[i]->ToString() + " = $key" + std::to_string(i);
  }
  out += ")";
  return out;
}

}  // namespace erbium
