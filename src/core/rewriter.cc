#include "core/rewriter.h"

#include "sql/printer.h"
#include "util/string_util.h"

namespace prefsql {
namespace {

constexpr char kOuterAlias[] = "A1";
constexpr char kInnerAlias[] = "A2";

// Builds "<alias>.<column>".
ExprPtr AliasedCol(const char* alias, const std::string& column) {
  return Expr::MakeColumn(alias, column);
}

// Dominance-condition builder: for every preference node produces SQL
// predicates over the level columns stating "A2 is better than A1" and
// "A2 is level-equal to A1" (§3.2).
class DominanceBuilder {
 public:
  DominanceBuilder(const CompiledPreference& pref,
                   const std::vector<std::string>& level_columns)
      : pref_(pref), level_columns_(level_columns) {}

  ExprPtr Better(const PrefNode& node) const {
    switch (node.kind) {
      case PrefNode::Kind::kLeaf:
        return Cmp(node.leaf_slot, BinaryOp::kLt);
      case PrefNode::Kind::kPareto: {
        // all better-or-equal AND at least one strictly better — the
        // paper's "<= ... <= ... AND (< OR <)" shape.
        std::vector<ExprPtr> conjuncts;
        for (const auto& c : node.children) {
          conjuncts.push_back(BetterOrEqual(*c));
        }
        std::vector<ExprPtr> disjuncts;
        for (const auto& c : node.children) {
          disjuncts.push_back(Better(*c));
        }
        conjuncts.push_back(MakeDisjunction(std::move(disjuncts)));
        return Expr::MakeConjunction(std::move(conjuncts));
      }
      case PrefNode::Kind::kPrioritized: {
        // B1 OR (E1 AND B2) OR (E1 AND E2 AND B3) ...
        std::vector<ExprPtr> disjuncts;
        for (size_t i = 0; i < node.children.size(); ++i) {
          std::vector<ExprPtr> conjuncts;
          for (size_t j = 0; j < i; ++j) {
            conjuncts.push_back(Equal(*node.children[j]));
          }
          conjuncts.push_back(Better(*node.children[i]));
          disjuncts.push_back(Expr::MakeConjunction(std::move(conjuncts)));
        }
        return MakeDisjunction(std::move(disjuncts));
      }
      case PrefNode::Kind::kIntersect: {
        // strictly better in every constituent.
        std::vector<ExprPtr> conjuncts;
        for (const auto& c : node.children) {
          conjuncts.push_back(Better(*c));
        }
        return Expr::MakeConjunction(std::move(conjuncts));
      }
    }
    return nullptr;
  }

  ExprPtr Equal(const PrefNode& node) const {
    if (node.kind == PrefNode::Kind::kLeaf) {
      return Cmp(node.leaf_slot, BinaryOp::kEq);
    }
    std::vector<ExprPtr> conjuncts;
    for (const auto& c : node.children) conjuncts.push_back(Equal(*c));
    return Expr::MakeConjunction(std::move(conjuncts));
  }

  ExprPtr BetterOrEqual(const PrefNode& node) const {
    if (node.kind == PrefNode::Kind::kLeaf) {
      return Cmp(node.leaf_slot, BinaryOp::kLe);  // the paper's "<="
    }
    std::vector<ExprPtr> disjuncts;
    disjuncts.push_back(Better(node));
    disjuncts.push_back(Equal(node));
    return MakeDisjunction(std::move(disjuncts));
  }

 private:
  ExprPtr Cmp(size_t slot, BinaryOp op) const {
    return Expr::MakeBinary(op, AliasedCol(kInnerAlias, level_columns_[slot]),
                            AliasedCol(kOuterAlias, level_columns_[slot]));
  }

  static ExprPtr MakeDisjunction(std::vector<ExprPtr> disjuncts) {
    ExprPtr out;
    for (auto& d : disjuncts) {
      if (!d) continue;
      if (!out) {
        out = std::move(d);
      } else {
        out = Expr::MakeBinary(BinaryOp::kOr, std::move(out), std::move(d));
      }
    }
    return out;
  }

  const CompiledPreference& pref_;
  const std::vector<std::string>& level_columns_;
};

// Quality expressions over the outer alias A1 (select list, BUT ONLY,
// ORDER BY of the rewritten query).
class QualityExprBuilder {
 public:
  QualityExprBuilder(const CompiledPreference& pref,
                     const std::vector<std::string>& level_columns,
                     std::string aux_view_name)
      : pref_(pref),
        level_columns_(level_columns),
        aux_view_name_(std::move(aux_view_name)) {}

  Result<ExprPtr> Make(QualityFn fn, const std::string& column) const {
    PSQL_ASSIGN_OR_RETURN(size_t slot, pref_.LeafForColumn(column));
    const BasePreference& base = *pref_.leaf(slot).pref;
    switch (fn) {
      case QualityFn::kDistance:
        return Distance(slot, base);
      case QualityFn::kTop: {
        PSQL_ASSIGN_OR_RETURN(ExprPtr dist, Distance(slot, base));
        return Expr::MakeBinary(BinaryOp::kEq, std::move(dist),
                                Expr::MakeLiteral(Value::Double(0.0)));
      }
      case QualityFn::kLevel: {
        if (base.IsCategorical()) {
          return AliasedCol(kOuterAlias, level_columns_[slot]);
        }
        // Numeric preferences: 1 when perfect, 2 otherwise.
        PSQL_ASSIGN_OR_RETURN(ExprPtr dist, Distance(slot, base));
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kCase;
        CaseWhen cw;
        cw.when = Expr::MakeBinary(BinaryOp::kEq, std::move(dist),
                                   Expr::MakeLiteral(Value::Double(0.0)));
        cw.then = Expr::MakeLiteral(Value::Int(1));
        e->case_whens.push_back(std::move(cw));
        e->case_else = Expr::MakeLiteral(Value::Int(2));
        return e;
      }
    }
    return Status::Internal("unreachable quality function");
  }

 private:
  Result<ExprPtr> Distance(size_t slot, const BasePreference& base) const {
    ExprPtr lvl = AliasedCol(kOuterAlias, level_columns_[slot]);
    auto offset = base.QualityOffset();
    ExprPtr offset_expr;
    if (offset) {
      if (*offset == 0.0) return lvl;  // score IS the distance
      offset_expr = Expr::MakeLiteral(Value::Double(*offset));
    } else {
      // Distance from the observed optimum: scalar subquery
      // (SELECT MIN(_lvl_i) FROM <aux>), §2.2.3.
      auto sub = std::make_shared<SelectStmt>();
      std::vector<ExprPtr> args;
      args.push_back(Expr::MakeColumn("", level_columns_[slot]));
      sub->items.push_back(
          {Expr::MakeFunction("min", std::move(args)), ""});
      auto tr = std::make_unique<TableRef>();
      tr->kind = TableRef::Kind::kTable;
      tr->table_name = aux_view_name_;
      sub->from.push_back(std::move(tr));
      offset_expr = std::make_unique<Expr>();
      offset_expr->kind = ExprKind::kSubquery;
      offset_expr->subquery = std::move(sub);
    }
    return Expr::MakeBinary(BinaryOp::kSub, std::move(lvl),
                            std::move(offset_expr));
  }

  const CompiledPreference& pref_;
  const std::vector<std::string>& level_columns_;
  std::string aux_view_name_;
};

// Unique level-column names that do not collide with base columns.
std::vector<std::string> MakeLevelColumnNames(
    size_t count, const std::vector<std::string>& base_columns) {
  std::vector<std::string> out;
  for (size_t i = 0; i < count; ++i) {
    std::string name = "_lvl" + std::to_string(i);
    while (FindNameIgnoreCase(base_columns, name)) name += "_x";
    out.push_back(std::move(name));
  }
  return out;
}

Statement MakeDropView(const std::string& name) {
  Statement drop;
  drop.kind = StatementKind::kDrop;
  drop.drop_kind = Statement::DropKind::kView;
  drop.name = name;
  return drop;
}

}  // namespace

std::string RewriteOutput::ToScript() const {
  std::vector<std::string> parts;
  for (const auto& st : setup) parts.push_back(StatementToSql(st));
  parts.push_back(SelectToSql(*query));
  for (const auto& st : teardown) parts.push_back(StatementToSql(st));
  return Join(parts, ";\n") + ";";
}

Result<RewriteOutput> RewritePreferenceQuery(
    const AnalyzedPreferenceQuery& analyzed,
    const std::vector<std::string>& base_columns, ButOnlyMode but_only_mode,
    const std::string& aux_view_name) {
  const SelectStmt& q = *analyzed.query;
  const CompiledPreference& pref = analyzed.preference();

  // Qualified stars cannot be re-expanded over the Aux view.
  for (const auto& item : q.items) {
    if (item.expr->kind == ExprKind::kStar && !item.expr->qualifier.empty()) {
      return Status::NotImplemented(
          "qualified '*' in a preference query is not supported by the "
          "rewriter");
    }
  }

  std::vector<std::string> level_cols =
      MakeLevelColumnNames(pref.num_leaves(), base_columns);

  RewriteOutput out;

  // --- Aux view: SELECT *, <score exprs> FROM <from> WHERE <where> --------
  auto aux_select = std::make_shared<SelectStmt>();
  aux_select->items.push_back({Expr::MakeStar(), ""});
  for (size_t i = 0; i < pref.num_leaves(); ++i) {
    const PrefLeaf& leaf = pref.leaf(i);
    PSQL_ASSIGN_OR_RETURN(ExprPtr score, leaf.pref->ScoreExpr(*leaf.attr));
    aux_select->items.push_back({std::move(score), level_cols[i]});
  }
  for (const auto& tr : q.from) aux_select->from.push_back(tr->Clone());
  if (q.where) aux_select->where = q.where->Clone();

  Statement create_aux;
  create_aux.kind = StatementKind::kCreateView;
  create_aux.name = aux_view_name;
  create_aux.select = aux_select;
  out.setup.push_back(std::move(create_aux));

  QualityExprBuilder quality(pref, level_cols, aux_view_name);
  auto quality_factory = [&](QualityFn fn,
                             const std::string& column) -> Result<ExprPtr> {
    return quality.Make(fn, column);
  };

  // --- BUT ONLY: pre-filter mode wraps Aux in a second, filtered view -----
  std::string candidate_view = aux_view_name;
  if (q.but_only != nullptr && but_only_mode == ButOnlyMode::kPreFilter) {
    // Quality expressions in the filtered view reference its own columns
    // (the level columns are passed through by SELECT *).
    candidate_view = aux_view_name + "_f";
    auto filtered = std::make_shared<SelectStmt>();
    filtered->items.push_back({Expr::MakeStar(), ""});
    auto tr = std::make_unique<TableRef>();
    tr->kind = TableRef::Kind::kTable;
    tr->table_name = aux_view_name;
    tr->alias = kOuterAlias;  // quality exprs are built against A1
    filtered->from.push_back(std::move(tr));
    PSQL_ASSIGN_OR_RETURN(filtered->where,
                          RewriteQualityCalls(*q.but_only, quality_factory));
    Statement create_filtered;
    create_filtered.kind = StatementKind::kCreateView;
    create_filtered.name = candidate_view;
    create_filtered.select = filtered;
    out.setup.push_back(std::move(create_filtered));
    out.teardown.push_back(MakeDropView(candidate_view));
  }
  out.teardown.push_back(MakeDropView(aux_view_name));

  // --- Main query ----------------------------------------------------------
  auto main = std::make_shared<SelectStmt>();
  main->distinct = q.distinct;

  for (const auto& item : q.items) {
    if (item.expr->kind == ExprKind::kStar) {
      // Project the base columns; the synthetic level columns stay hidden.
      for (const auto& col : base_columns) {
        main->items.push_back({Expr::MakeColumn("", col), ""});
      }
      continue;
    }
    PSQL_ASSIGN_OR_RETURN(ExprPtr e,
                          RewriteQualityCalls(*item.expr, quality_factory));
    std::string alias = item.alias;
    if (alias.empty() && ContainsQualityCall(*item.expr)) {
      // Preserve the pretty "LEVEL(color)" header of the original call.
      alias = ExprToSql(*item.expr);
    }
    main->items.push_back({std::move(e), std::move(alias)});
  }

  auto outer_ref = std::make_unique<TableRef>();
  outer_ref->kind = TableRef::Kind::kTable;
  outer_ref->table_name = candidate_view;
  outer_ref->alias = kOuterAlias;
  main->from.push_back(std::move(outer_ref));

  // NOT EXISTS (SELECT 1 FROM <aux> A2 WHERE A2-dominates-A1 [AND grouping]).
  DominanceBuilder dom(pref, level_cols);
  auto inner = std::make_shared<SelectStmt>();
  inner->items.push_back({Expr::MakeLiteral(Value::Int(1)), ""});
  auto inner_ref = std::make_unique<TableRef>();
  inner_ref->kind = TableRef::Kind::kTable;
  inner_ref->table_name = candidate_view;
  inner_ref->alias = kInnerAlias;
  inner->from.push_back(std::move(inner_ref));
  std::vector<ExprPtr> inner_conjuncts;
  inner_conjuncts.push_back(dom.Better(pref.root()));
  for (const auto& g : q.grouping) {
    // Same partition: equal values, with NULLs grouping together.
    ExprPtr eq = Expr::MakeBinary(BinaryOp::kEq, AliasedCol(kInnerAlias, g),
                                  AliasedCol(kOuterAlias, g));
    auto null_a = std::make_unique<Expr>();
    null_a->kind = ExprKind::kIsNull;
    null_a->left = AliasedCol(kInnerAlias, g);
    auto null_b = std::make_unique<Expr>();
    null_b->kind = ExprKind::kIsNull;
    null_b->left = AliasedCol(kOuterAlias, g);
    ExprPtr both_null = Expr::MakeBinary(BinaryOp::kAnd, std::move(null_a),
                                         std::move(null_b));
    inner_conjuncts.push_back(Expr::MakeBinary(
        BinaryOp::kOr, std::move(eq), std::move(both_null)));
  }
  inner->where = Expr::MakeConjunction(std::move(inner_conjuncts));

  auto not_exists = std::make_unique<Expr>();
  not_exists->kind = ExprKind::kExists;
  not_exists->negated = true;
  not_exists->subquery = std::move(inner);

  std::vector<ExprPtr> outer_conjuncts;
  outer_conjuncts.push_back(std::move(not_exists));
  if (q.but_only != nullptr && but_only_mode == ButOnlyMode::kPostFilter) {
    PSQL_ASSIGN_OR_RETURN(ExprPtr bo,
                          RewriteQualityCalls(*q.but_only, quality_factory));
    outer_conjuncts.push_back(std::move(bo));
  }
  main->where = Expr::MakeConjunction(std::move(outer_conjuncts));

  for (const auto& oi : q.order_by) {
    PSQL_ASSIGN_OR_RETURN(ExprPtr e,
                          RewriteQualityCalls(*oi.expr, quality_factory));
    main->order_by.push_back({std::move(e), oi.ascending});
  }
  main->limit = q.limit;
  main->offset = q.offset;

  out.query = std::move(main);
  return out;
}

}  // namespace prefsql
