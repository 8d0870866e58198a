#ifndef ERBIUM_EXEC_JOIN_H_
#define ERBIUM_EXEC_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"

namespace erbium {

enum class JoinType { kInner, kLeftOuter };

/// Hash join: builds on the right child, probes with the left. Left-outer
/// pads the right side with nulls when no match — used heavily for
/// normalized mappings (subclass delta tables, multi-valued side tables).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
             JoinType join_type = JoinType::kInner);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  size_t EstimatedRowCount() const override {
    return left_->EstimatedRowCount();
  }
  void ReleaseState() override;

  /// Distinct build keys held from the last Open() (0 once released).
  size_t build_entries() const { return hash_table_.size(); }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinType join_type_;

  std::unordered_map<std::vector<Value>, std::vector<Row>, ValueVectorHash,
                     ValueVectorEq>
      hash_table_;
  Row current_left_;
  const std::vector<Row>* current_matches_ = nullptr;
  size_t match_index_ = 0;
  size_t right_arity_ = 0;
};

/// Nested-loop join with an arbitrary predicate over the concatenated row;
/// the fallback for non-equi joins. Materializes the right child once per
/// execution (re-opens inside one execution reuse it).
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate,
                   JoinType join_type = JoinType::kInner);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }
  void ReleaseState() override;

  /// Right-side rows held from the last execution (0 once released).
  size_t materialized_rows() const { return right_rows_.size(); }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;
  JoinType join_type_;

  std::vector<Row> right_rows_;
  bool right_materialized_ = false;
  Row current_left_;
  bool has_left_ = false;
  bool left_matched_ = false;
  size_t right_index_ = 0;
  size_t right_arity_ = 0;
};

/// Index nested-loop join: for each left row, evaluates key expressions
/// and probes a pinned version of the right *table* (index-backed when an
/// index on those columns exists). The physical analogue of a foreign-key
/// dereference.
class IndexJoinOp : public Operator {
 public:
  IndexJoinOp(OperatorPtr left, const Table* right,
              std::vector<ExprPtr> left_keys,
              std::vector<int> right_key_columns,
              JoinType join_type = JoinType::kInner);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get()};
  }
  OperatorPtr CloneForWorker(ParallelContext* ctx) const override;
  size_t EstimatedRowCount() const override {
    return left_->EstimatedRowCount();
  }

 private:
  OperatorPtr left_;
  const Table* right_;
  const TableVersion* right_version_ = nullptr;
  std::shared_ptr<const TableVersion> owned_pin_;
  std::vector<ExprPtr> left_keys_;
  std::vector<int> right_key_columns_;
  JoinType join_type_;

  Row current_left_;
  std::vector<RowId> matches_;
  size_t match_index_ = 0;
  bool has_left_ = false;
  size_t right_arity_ = 0;
};

/// Index nested-loop join over a parameterised inner plan: for each left
/// row, writes the row's `left_keys` into `slot` and re-opens `inner`,
/// whose IndexLookups read their probe key from that slot. The inner plan
/// is built once at compile time (a key-bound navigation's relationship
/// probe or far-entity lookup), so a left side of k rows costs k index
/// probes instead of a full build of the inner side. Output: left columns
/// then inner columns, as HashJoinOp. Rows with a null key join nothing.
///
/// Open() opens the inner plan once with an empty slot, which probes
/// nothing but resolves every version the inner plan reads through the
/// statement's snapshot on the statement thread; later re-opens, on pool
/// workers too, read those same pins (exec/snapshot.h).
class LookupJoinOp : public Operator {
 public:
  LookupJoinOp(OperatorPtr left, OperatorPtr inner,
               std::vector<ExprPtr> left_keys, KeySlot slot);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {left_.get(), inner_.get()};
  }
  size_t EstimatedRowCount() const override {
    return left_->EstimatedRowCount();
  }

 private:
  OperatorPtr left_;
  OperatorPtr inner_;
  std::vector<ExprPtr> left_keys_;
  KeySlot slot_;

  Row current_left_;
  Row inner_row_;
  bool has_left_ = false;
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_JOIN_H_
