#include "engine/operators/aggregate.h"

namespace prefsql {

AggregateOperator::AggregateOperator(OperatorPtr child, Schema out_schema,
                                     std::vector<const Expr*> group_by,
                                     std::vector<const Expr*> aggs,
                                     std::vector<AggregateKind> kinds,
                                     const EvalContext* outer,
                                     SubqueryRunner* runner)
    : child_(std::move(child)),
      schema_(std::move(out_schema)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      kinds_(std::move(kinds)),
      outer_(outer),
      runner_(runner) {}

Status AggregateOperator::Open() {
  PSQL_RETURN_IF_ERROR(child_->Open());
  group_rows_.clear();
  pos_ = 0;

  struct Group {
    Row key;
    std::vector<AggregateAccumulator> accs;
  };
  std::vector<Group> groups;
  std::unordered_map<size_t, std::vector<size_t>> group_index;

  auto new_group = [&](Row key) {
    Group g;
    g.key = std::move(key);
    for (size_t j = 0; j < aggs_.size(); ++j) {
      g.accs.emplace_back(kinds_[j], aggs_[j]->distinct_arg);
    }
    groups.push_back(std::move(g));
    return groups.size() - 1;
  };

  PSQL_RETURN_IF_ERROR(ForEachBatch(*child_, [&](RowBatch& batch) -> Status {
    for (uint32_t idx : batch.sel) {
      EvalContext ctx{&child_->schema(), &batch.rows[idx].row(), outer_,
                      runner_};
      Row key;
      key.reserve(group_by_.size());
      for (const Expr* g : group_by_) {
        PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(*g, ctx));
        key.push_back(std::move(v));
      }
      size_t h = HashRow(key);
      size_t gidx = SIZE_MAX;
      for (size_t cand : group_index[h]) {
        if (RowsIdentityEqual(groups[cand].key, key)) {
          gidx = cand;
          break;
        }
      }
      if (gidx == SIZE_MAX) {
        gidx = new_group(std::move(key));
        group_index[h].push_back(gidx);
      }
      for (size_t j = 0; j < aggs_.size(); ++j) {
        Value arg;  // NULL placeholder for COUNT(*)
        if (kinds_[j] != AggregateKind::kCountStar) {
          PSQL_ASSIGN_OR_RETURN(arg, Evaluate(*aggs_[j]->args[0], ctx));
        }
        PSQL_RETURN_IF_ERROR(groups[gidx].accs[j].Add(arg));
      }
    }
    return Status::OK();
  }));
  // Scalar aggregation over an empty input still yields one group.
  if (group_by_.empty() && groups.empty()) new_group(Row{});

  group_rows_.reserve(groups.size());
  for (auto& g : groups) {
    Row r = std::move(g.key);
    for (auto& acc : g.accs) r.push_back(acc.Finish());
    group_rows_.push_back(std::move(r));
  }
  return Status::OK();
}

Result<bool> AggregateOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (pos_ >= group_rows_.size()) return false;
  while (pos_ < group_rows_.size() && !out->full()) {
    out->PushRow(RowRef::Owned(std::move(group_rows_[pos_++])));
  }
  return true;
}

void AggregateOperator::Close() {
  child_->Close();
  group_rows_.clear();
}

}  // namespace prefsql
