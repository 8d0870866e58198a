#ifndef ERBIUM_EXEC_SORT_H_
#define ERBIUM_EXEC_SORT_H_

#include <string>
#include <vector>

#include "exec/operator.h"

namespace erbium {

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Full materializing sort (stable).
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys);

  Status OpenImpl() override;
  bool NextImpl(Row* out) override;
  std::string name() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  void ReleaseState() override;

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t next_ = 0;
};

}  // namespace erbium

#endif  // ERBIUM_EXEC_SORT_H_
