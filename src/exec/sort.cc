#include "exec/sort.h"

#include <algorithm>

namespace erbium {

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  output_ = child_->output_columns();
}

Status SortOp::OpenImpl() {
  rows_.clear();
  next_ = 0;
  ERBIUM_RETURN_NOT_OK(child_->Open());
  Row row;
  while (child_->Next(&row)) rows_.push_back(std::move(row));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& key : keys_) {
                       int c = key.expr->Eval(a).Compare(key.expr->Eval(b));
                       if (c != 0) return key.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Status::OK();
}

void SortOp::ReleaseState() {
  std::vector<Row>().swap(rows_);
  Operator::ReleaseState();
}

bool SortOp::NextImpl(Row* out) {
  if (next_ >= rows_.size()) return false;
  *out = std::move(rows_[next_++]);
  return true;
}

std::string SortOp::name() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    if (!keys_[i].ascending) out += " DESC";
  }
  out += ")";
  return out;
}

}  // namespace erbium
