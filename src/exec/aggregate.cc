#include "exec/aggregate.h"

#include <unordered_map>

#include "common/string_util.h"

namespace erbium {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kArrayAgg:
      return "array_agg";
  }
  return "?";
}

Result<AggKind> AggKindByName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "avg") return AggKind::kAvg;
  if (lower == "min") return AggKind::kMin;
  if (lower == "max") return AggKind::kMax;
  if (lower == "array_agg") return AggKind::kArrayAgg;
  return Status::AnalysisError("unknown aggregate function: " + name);
}

void AggAccumulator::Update(const AggregateSpec& spec, const Value& v) {
  if (spec.kind == AggKind::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  if (spec.distinct) {
    if (distinct_seen_ == nullptr) {
      distinct_seen_ =
          std::make_unique<std::unordered_set<Value, ValueHash>>();
    }
    if (!distinct_seen_->insert(v).second) return;
  }
  switch (spec.kind) {
    case AggKind::kCountStar:
      break;
    case AggKind::kCount:
      ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      ++count_;
      if (v.kind() == TypeKind::kInt64 && sum_is_int_) {
        int_sum_ += v.as_int64();
      } else {
        if (sum_is_int_) {
          sum_ = static_cast<double>(int_sum_);
          sum_is_int_ = false;
        }
        sum_ += v.AsFloat64();
      }
      break;
    case AggKind::kMin:
      if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
      break;
    case AggKind::kMax:
      if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
      break;
    case AggKind::kArrayAgg:
      collected_.push_back(v);
      break;
  }
}

void AggAccumulator::Merge(const AggregateSpec& spec, AggAccumulator&& other) {
  if (spec.distinct && spec.kind != AggKind::kCountStar) {
    // Replay the other side's distinct values; Update dedups against this
    // side's seen-set, so values observed by both partials count once.
    if (other.distinct_seen_ != nullptr) {
      for (const Value& v : *other.distinct_seen_) Update(spec, v);
    }
    return;
  }
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      count_ += other.count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      count_ += other.count_;
      if (sum_is_int_ && other.sum_is_int_) {
        int_sum_ += other.int_sum_;
      } else {
        if (sum_is_int_) {
          sum_ = static_cast<double>(int_sum_);
          sum_is_int_ = false;
        }
        sum_ += other.sum_is_int_ ? static_cast<double>(other.int_sum_)
                                  : other.sum_;
      }
      break;
    case AggKind::kMin:
      if (!other.min_.is_null() &&
          (min_.is_null() || other.min_.Compare(min_) < 0)) {
        min_ = std::move(other.min_);
      }
      break;
    case AggKind::kMax:
      if (!other.max_.is_null() &&
          (max_.is_null() || other.max_.Compare(max_) > 0)) {
        max_ = std::move(other.max_);
      }
      break;
    case AggKind::kArrayAgg:
      collected_.insert(collected_.end(),
                        std::make_move_iterator(other.collected_.begin()),
                        std::make_move_iterator(other.collected_.end()));
      break;
  }
}

Value AggAccumulator::Finalize(const AggregateSpec& spec) {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      return sum_is_int_ ? Value::Int64(int_sum_) : Value::Float64(sum_);
    case AggKind::kAvg: {
      if (count_ == 0) return Value::Null();
      double total =
          sum_is_int_ ? static_cast<double>(int_sum_) : sum_;
      return Value::Float64(total / static_cast<double>(count_));
    }
    case AggKind::kMin:
      return min_;
    case AggKind::kMax:
      return max_;
    case AggKind::kArrayAgg:
      return Value::Array(std::move(collected_));
  }
  return Value::Null();
}

void AggGroupTable::Accumulate(const std::vector<ExprPtr>& group_exprs,
                               const std::vector<AggregateSpec>& aggregates,
                               const Row& row) {
  std::vector<Value> key;
  key.reserve(group_exprs.size());
  for (const ExprPtr& e : group_exprs) key.push_back(e->Eval(row));
  auto [it, inserted] = index.emplace(key, states.size());
  if (inserted) {
    AggGroupState state;
    state.key = std::move(key);
    state.aggs.resize(aggregates.size());
    states.push_back(std::move(state));
  }
  AggGroupState& state = states[it->second];
  for (size_t i = 0; i < aggregates.size(); ++i) {
    const AggregateSpec& spec = aggregates[i];
    Value v = spec.input ? spec.input->Eval(row) : Value::Null();
    state.aggs[i].Update(spec, v);
  }
}

void AggGroupTable::Merge(const std::vector<AggregateSpec>& aggregates,
                          AggGroupTable&& other) {
  for (AggGroupState& incoming : other.states) {
    auto [it, inserted] = index.emplace(incoming.key, states.size());
    if (inserted) {
      states.push_back(std::move(incoming));
      continue;
    }
    AggGroupState& state = states[it->second];
    for (size_t i = 0; i < aggregates.size(); ++i) {
      state.aggs[i].Merge(aggregates[i], std::move(incoming.aggs[i]));
    }
  }
  other.index.clear();
  other.states.clear();
}

void AggGroupTable::EmitGroup(size_t i,
                              const std::vector<AggregateSpec>& aggregates,
                              Row* out) {
  AggGroupState& state = states[i];
  out->clear();
  out->reserve(state.key.size() + aggregates.size());
  for (Value& v : state.key) out->push_back(std::move(v));
  for (size_t a = 0; a < aggregates.size(); ++a) {
    out->push_back(state.aggs[a].Finalize(aggregates[a]));
  }
}

std::vector<Column> AggregateOutputColumns(
    const std::vector<std::string>& group_names,
    const std::vector<AggregateSpec>& aggregates) {
  std::vector<Column> out;
  out.reserve(group_names.size() + aggregates.size());
  for (const std::string& name : group_names) {
    out.push_back(Column{name, Type::Null(), true});
  }
  for (const AggregateSpec& spec : aggregates) {
    TypePtr type;
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        type = Type::Int64();
        break;
      case AggKind::kAvg:
        type = Type::Float64();
        break;
      default:
        type = Type::Null();
        break;
    }
    out.push_back(Column{spec.output_name, type, true});
  }
  return out;
}

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<std::string> group_names,
                                 std::vector<AggregateSpec> aggregates)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)) {
  output_ = AggregateOutputColumns(group_names, aggregates_);
}

HashAggregateOp::~HashAggregateOp() = default;

void HashAggregateOp::ReleaseState() {
  groups_.reset();
  Operator::ReleaseState();
}

Status HashAggregateOp::OpenImpl() {
  groups_ = std::make_unique<AggGroupTable>();
  next_group_ = 0;
  ERBIUM_RETURN_NOT_OK(child_->Open());
  Row row;
  while (child_->Next(&row)) {
    groups_->Accumulate(group_exprs_, aggregates_, row);
  }
  // Global aggregate over empty input still emits one row.
  if (group_exprs_.empty() && groups_->states.empty()) {
    AggGroupState state;
    state.aggs.resize(aggregates_.size());
    groups_->states.push_back(std::move(state));
  }
  return Status::OK();
}

bool HashAggregateOp::NextImpl(Row* out) {
  if (groups_ == nullptr || next_group_ >= groups_->states.size()) {
    return false;
  }
  groups_->EmitGroup(next_group_++, aggregates_, out);
  return true;
}

std::string HashAggregateOp::name() const {
  std::string out = "HashAggregate(groups=";
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

}  // namespace erbium
