#include "db/executor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "sql/printer.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace apollo::db {

namespace {

using common::ResultSet;
using common::ResultSetPtr;
using common::Row;
using common::Value;
using sql::BinOp;
using sql::Expr;
using sql::ExprKind;
using util::Result;
using util::Status;

/// One relation participating in a SELECT: the table plus its effective
/// (alias-resolved) name.
struct Relation {
  std::string name;  // effective name used by qualified refs
  const Table* table;
};

/// Column reference resolved to (relation slot, column position).
struct ResolvedColumn {
  int rel = -1;
  int col = -1;
  bool ok() const { return rel >= 0; }
};

/// Execution context shared by all expression evaluations of one query.
struct ExecContext {
  std::vector<Relation> relations;
  // Resolution cache: column-ref node -> slot. A statement has a few
  // dozen column refs at most, and every row looks them up, so a linear
  // scan beats hashing.
  std::vector<std::pair<const Expr*, ResolvedColumn>> resolution;
  // Finalized aggregate values for the group currently being projected
  // (set only during aggregate finalization, enabling expressions over
  // aggregates such as MAX(O_ID) - 3333).
  const std::unordered_map<const Expr*, Value>* agg_values = nullptr;
  // Bound parameter values for prepared execution: placeholder expressions
  // index into this vector. Null for plain text execution, where a
  // placeholder is an error.
  const std::vector<Value>* params = nullptr;
  uint64_t rows_examined = 0;
  // Rows the reference scan plan examines (ResultSet::cost_rows): exact
  // while below `cost_bound` (CostRows::bound), where the skipped-row walk
  // stops; reported only when the bound is positive.
  uint64_t cost_bound = 0;
  uint64_t cost_rows = 0;
};

/// A join tuple: one live RowId per relation (only the first `bound` are
/// meaningful during join recursion).
using Tuple = std::vector<RowId>;

Result<ResolvedColumn> ResolveColumn(ExecContext& ctx, const Expr& e) {
  for (const auto& [expr, rc] : ctx.resolution) {
    if (expr == &e) return rc;
  }
  ResolvedColumn rc;
  for (size_t r = 0; r < ctx.relations.size(); ++r) {
    const auto& rel = ctx.relations[r];
    if (!e.table.empty() && e.table != rel.name &&
        e.table != rel.table->schema().table_name()) {
      continue;
    }
    int c = rel.table->schema().ColumnIndex(e.column);
    if (c >= 0) {
      if (rc.ok() && e.table.empty()) {
        return Status::InvalidArgument("ambiguous column " + e.column);
      }
      rc.rel = static_cast<int>(r);
      rc.col = c;
      if (!e.table.empty()) break;
    }
  }
  if (!rc.ok()) {
    return Status::NotFound("unknown column " +
                            (e.table.empty() ? e.column
                                             : e.table + "." + e.column));
  }
  ctx.resolution.emplace_back(&e, rc);
  return rc;
}

bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int()) return v.AsInt() != 0;
  if (v.is_double()) return v.AsDoubleRaw() != 0.0;
  return !v.AsString().empty();
}

Result<Value> EvalExpr(ExecContext& ctx, const Tuple& tuple, const Expr& e);

/// Reads a leaf in place: a column ref from the bound row, a literal or
/// placeholder from the statement. Null for any other expression kind.
Result<const Value*> LeafRef(ExecContext& ctx, const Tuple& tuple,
                             const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return &e.literal;
    case ExprKind::kPlaceholder:
      if (ctx.params != nullptr && e.placeholder_index >= 0 &&
          static_cast<size_t>(e.placeholder_index) < ctx.params->size()) {
        return &(*ctx.params)[e.placeholder_index];
      }
      return Status::InvalidArgument("unbound placeholder in execution");
    case ExprKind::kColumnRef: {
      auto rc = ResolveColumn(ctx, e);
      if (!rc.ok()) return rc.status();
      return &ctx.relations[rc->rel].table->At(tuple[rc->rel])[rc->col];
    }
    default:
      return nullptr;
  }
}

/// Evaluates `e` without copying a leaf (see LeafRef); anything else is
/// evaluated into `scratch`. The pointer is valid while `scratch` and the
/// bound rows are.
Result<const Value*> EvalRef(ExecContext& ctx, const Tuple& tuple,
                             const Expr& e, Value* scratch) {
  auto leaf = LeafRef(ctx, tuple, e);
  if (!leaf.ok() || *leaf != nullptr) return leaf;
  auto v = EvalExpr(ctx, tuple, e);
  if (!v.ok()) return v.status();
  *scratch = std::move(*v);
  return scratch;
}

Result<Value> EvalBinary(ExecContext& ctx, const Tuple& tuple,
                         const Expr& e) {
  Value ls, rs;
  // AND/OR short-circuit.
  if (e.op == BinOp::kAnd || e.op == BinOp::kOr) {
    auto l = EvalRef(ctx, tuple, *e.children[0], &ls);
    if (!l.ok()) return l.status();
    bool lv = Truthy(**l);
    if (e.op == BinOp::kAnd && !lv) return Value::Int(0);
    if (e.op == BinOp::kOr && lv) return Value::Int(1);
    auto r = EvalRef(ctx, tuple, *e.children[1], &rs);
    if (!r.ok()) return r.status();
    return Value::Int(Truthy(**r) ? 1 : 0);
  }
  auto l = EvalRef(ctx, tuple, *e.children[0], &ls);
  if (!l.ok()) return l.status();
  auto r = EvalRef(ctx, tuple, *e.children[1], &rs);
  if (!r.ok()) return r.status();
  const Value& a = **l;
  const Value& b = **r;
  switch (e.op) {
    case BinOp::kEq:
      if (a.is_null() || b.is_null()) return Value::Int(0);
      return Value::Int(a == b ? 1 : 0);
    case BinOp::kNe:
      if (a.is_null() || b.is_null()) return Value::Int(0);
      return Value::Int(a != b ? 1 : 0);
    case BinOp::kLt:
      if (a.is_null() || b.is_null()) return Value::Int(0);
      return Value::Int(a.Compare(b) < 0 ? 1 : 0);
    case BinOp::kLe:
      if (a.is_null() || b.is_null()) return Value::Int(0);
      return Value::Int(a.Compare(b) <= 0 ? 1 : 0);
    case BinOp::kGt:
      if (a.is_null() || b.is_null()) return Value::Int(0);
      return Value::Int(a.Compare(b) > 0 ? 1 : 0);
    case BinOp::kGe:
      if (a.is_null() || b.is_null()) return Value::Int(0);
      return Value::Int(a.Compare(b) >= 0 ? 1 : 0);
    case BinOp::kLike: {
      if (!a.is_string() || !b.is_string()) return Value::Int(0);
      bool m = util::LikeMatch(a.AsString(), b.AsString());
      if (e.negated) m = !m;
      return Value::Int(m ? 1 : 0);
    }
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.is_numeric() || !b.is_numeric()) {
        return Status::TypeError("arithmetic on non-numeric value");
      }
      if (a.is_int() && b.is_int() && e.op != BinOp::kDiv) {
        int64_t x = a.AsInt();
        int64_t y = b.AsInt();
        switch (e.op) {
          case BinOp::kAdd: return Value::Int(x + y);
          case BinOp::kSub: return Value::Int(x - y);
          case BinOp::kMul: return Value::Int(x * y);
          default: break;
        }
      }
      double x = a.ToDouble();
      double y = b.ToDouble();
      switch (e.op) {
        case BinOp::kAdd: return Value::Double(x + y);
        case BinOp::kSub: return Value::Double(x - y);
        case BinOp::kMul: return Value::Double(x * y);
        case BinOp::kDiv:
          if (y == 0.0) return Value::Null();
          return Value::Double(x / y);
        default: break;
      }
      return Status::Internal("unreachable arithmetic op");
    }
    default:
      return Status::Internal("unexpected binary op in eval");
  }
}

Result<Value> EvalExpr(ExecContext& ctx, const Tuple& tuple, const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kPlaceholder:
    case ExprKind::kColumnRef: {
      auto leaf = LeafRef(ctx, tuple, e);
      if (!leaf.ok()) return leaf.status();
      return **leaf;
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' outside select list / COUNT");
    case ExprKind::kUnaryMinus: {
      Value scratch;
      auto r = EvalRef(ctx, tuple, *e.children[0], &scratch);
      if (!r.ok()) return r.status();
      const Value& v = **r;
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDoubleRaw());
      return Status::TypeError("unary minus on non-numeric");
    }
    case ExprKind::kNot: {
      Value scratch;
      auto r = EvalRef(ctx, tuple, *e.children[0], &scratch);
      if (!r.ok()) return r.status();
      return Value::Int(Truthy(**r) ? 0 : 1);
    }
    case ExprKind::kBinary:
      return EvalBinary(ctx, tuple, e);
    case ExprKind::kFuncCall: {
      if (ctx.agg_values != nullptr) {
        auto it = ctx.agg_values->find(&e);
        if (it != ctx.agg_values->end()) return it->second;
      }
      return Status::InvalidArgument(
          "aggregate function outside aggregation context");
    }
    case ExprKind::kInList: {
      Value vs, is;
      auto v = EvalRef(ctx, tuple, *e.children[0], &vs);
      if (!v.ok()) return v.status();
      if ((*v)->is_null()) return Value::Int(0);
      bool found = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        auto item = EvalRef(ctx, tuple, *e.children[i], &is);
        if (!item.ok()) return item.status();
        if (**v == **item) {
          found = true;
          break;
        }
      }
      if (e.negated) found = !found;
      return Value::Int(found ? 1 : 0);
    }
    case ExprKind::kBetween: {
      Value vs, los, his;
      auto v = EvalRef(ctx, tuple, *e.children[0], &vs);
      if (!v.ok()) return v.status();
      auto lo = EvalRef(ctx, tuple, *e.children[1], &los);
      if (!lo.ok()) return lo.status();
      auto hi = EvalRef(ctx, tuple, *e.children[2], &his);
      if (!hi.ok()) return hi.status();
      if ((*v)->is_null() || (*lo)->is_null() || (*hi)->is_null()) {
        return Value::Int(0);
      }
      bool in = (*v)->Compare(**lo) >= 0 && (*v)->Compare(**hi) <= 0;
      if (e.negated) in = !in;
      return Value::Int(in ? 1 : 0);
    }
    case ExprKind::kIsNull: {
      Value scratch;
      auto v = EvalRef(ctx, tuple, *e.children[0], &scratch);
      if (!v.ok()) return v.status();
      bool is_null = (*v)->is_null();
      if (e.negated) is_null = !is_null;
      return Value::Int(is_null ? 1 : 0);
    }
  }
  return Status::Internal("unreachable expr kind");
}

/// Flattens an AND tree into conjuncts.
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == BinOp::kAnd) {
    FlattenConjuncts(e->children[0].get(), out);
    FlattenConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// Relations referenced by an expression subtree (as a bitmask; supports up
/// to 64 relations, far beyond the dialect's practical use).
Result<uint64_t> RelMask(ExecContext& ctx, const Expr& e) {
  uint64_t mask = 0;
  Status failed = Status::OK();
  std::function<void(const Expr&)> walk = [&](const Expr& node) {
    if (node.kind == ExprKind::kColumnRef) {
      auto rc = ResolveColumn(ctx, node);
      if (!rc.ok()) {
        if (failed.ok()) failed = rc.status();
        return;
      }
      mask |= (1ull << rc->rel);
    }
    for (const auto& c : node.children) walk(*c);
  };
  walk(e);
  if (!failed.ok()) return failed;
  return mask;
}

/// True if the expression tree contains an aggregate call.
bool HasAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFuncCall) return true;
  for (const auto& c : e.children) {
    if (HasAggregate(*c)) return true;
  }
  return false;
}

/// Aggregator state for one select item of an aggregate query.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min, max;
  bool any = false;
  std::unordered_set<uint64_t> distinct;
};

struct Conjunct {
  const Expr* expr;
  uint64_t mask;      // relations referenced
  int max_rel;        // highest relation slot referenced (-1 if none)
};

std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  const Expr& e = *item.expr;
  if (e.kind == ExprKind::kColumnRef) return e.column;
  return sql::PrintExpr(e);
}

/// Key describing one equality `column = <source>` usable for index probes.
struct EqKey {
  int col;                   // column position in the target relation
  const Expr* value_expr;    // literal or bound column-ref expression
  int conjunct = -1;         // conjuncts_ slot of the `=` it came from
};

class SelectRunner {
 public:
  SelectRunner(Catalog* catalog, const sql::SelectStmt& sel,
               const std::vector<Value>* params, bool probe_plans,
               uint64_t cost_bound)
      : catalog_(catalog), sel_(sel), probe_plans_(probe_plans) {
    ctx_.params = params;
    ctx_.cost_bound = cost_bound;
  }

  Result<ResultSetPtr> Run() {
    APOLLO_RETURN_NOT_OK(SetupRelations());
    APOLLO_RETURN_NOT_OK(SetupPredicates());
    bool aggregate = !sel_.group_by.empty();
    for (const auto& item : sel_.items) {
      if (HasAggregate(*item.expr)) aggregate = true;
    }
    if (aggregate && probe_plans_) {
      if (ResultSetPtr rs = IndexAggregate()) return rs;
    }
    return aggregate ? RunAggregate() : RunProjection();
  }

 private:
  Status SetupRelations() {
    auto add = [&](const sql::TableRef& tr) -> Status {
      const Table* t = catalog_->GetTable(tr.table);
      if (t == nullptr) {
        return Status::NotFound("unknown table " + tr.table);
      }
      ctx_.relations.push_back({tr.EffectiveName(), t});
      return Status::OK();
    };
    for (const auto& tr : sel_.tables) APOLLO_RETURN_NOT_OK(add(tr));
    for (const auto& j : sel_.joins) APOLLO_RETURN_NOT_OK(add(j.table));
    if (ctx_.relations.size() > 64) {
      return Status::Unimplemented("too many relations");
    }
    return Status::OK();
  }

  Status SetupPredicates() {
    std::vector<const Expr*> conjuncts;
    FlattenConjuncts(sel_.where.get(), &conjuncts);
    for (const auto& j : sel_.joins) {
      FlattenConjuncts(j.on.get(), &conjuncts);
    }
    for (const Expr* c : conjuncts) {
      auto mask = RelMask(ctx_, *c);
      if (!mask.ok()) return mask.status();
      int max_rel = -1;
      uint64_t m = *mask;
      for (int r = 0; r < 64; ++r) {
        if (m & (1ull << r)) max_rel = r;
      }
      conjuncts_.push_back({c, m, max_rel});
    }
    return BuildStepPlans();
  }

  Status BuildStepPlans() {
    step_plans_.resize(ctx_.relations.size());
    for (int step = 0; step < static_cast<int>(ctx_.relations.size());
         ++step) {
      StepPlan& plan = step_plans_[step];
      const Table* table = ctx_.relations[step].table;
      std::vector<EqKey> keys;
      CollectEqKeys(step, &keys);
      std::vector<int> probe_conjuncts;  // the `=` behind each probe column
      if (!keys.empty()) {
        std::vector<int> eq_cols;
        for (const auto& k : keys) eq_cols.push_back(k.col);
        plan.index = table->FindUsableIndex(eq_cols);
        if (plan.index >= 0) {
          for (int pos : table->IndexColumns(plan.index)) {
            for (const auto& k : keys) {
              if (k.col == pos) {
                plan.probe.push_back(k.value_expr);
                probe_conjuncts.push_back(k.conjunct);
                break;
              }
            }
          }
        }
      }
      for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
        if (conjuncts_[ci].max_rel != step) continue;
        plan.conjuncts.push_back(static_cast<int>(ci));
        plan.probe_implied.push_back(
            std::find(probe_conjuncts.begin(), probe_conjuncts.end(),
                      static_cast<int>(ci)) != probe_conjuncts.end());
        // The join visits each leading row once, so step 0 keeps no memo.
        if (step > 0 && conjuncts_[ci].mask == (1ull << step)) {
          plan.memo_slot.push_back(static_cast<int>(plan.memo.size()));
          plan.memo.emplace_back();
        } else {
          plan.memo_slot.push_back(-1);
        }
      }
    }
    if (probe_plans_) {
      PlanInListProbes();
      PlanSemijoin();
      PlanPrefixRanges();
    }
    return Status::OK();
  }

  /// Turns `col IN (v1, ..., vn)` over an indexed column into n index
  /// probes when every list element is a literal or placeholder (so the
  /// probe keys need no bound relations). Rows the probes skip fail the
  /// IN conjunct, so results are those of the scan plan.
  void PlanInListProbes() {
    for (int step = 0; step < static_cast<int>(ctx_.relations.size());
         ++step) {
      StepPlan& plan = step_plans_[step];
      if (plan.index >= 0) continue;
      const Table* table = ctx_.relations[step].table;
      for (int ci : plan.conjuncts) {
        const Expr* e = conjuncts_[ci].expr;
        if (e->kind != ExprKind::kInList || e->negated) continue;
        if (conjuncts_[ci].mask != (1ull << step)) continue;
        const Expr* col = e->children[0].get();
        if (col->kind != ExprKind::kColumnRef) continue;
        bool probeable = e->children.size() > 1;
        for (size_t i = 1; i < e->children.size(); ++i) {
          const auto k = e->children[i]->kind;
          if (k != ExprKind::kLiteral && k != ExprKind::kPlaceholder) {
            probeable = false;
            break;
          }
        }
        if (!probeable) continue;
        auto rc = ResolveColumn(ctx_, *col);
        if (!rc.ok()) continue;
        int idx = table->FindUsableIndex({rc->col});
        if (idx < 0) continue;
        plan.in_index = idx;
        for (size_t i = 1; i < e->children.size(); ++i) {
          plan.in_items.push_back(e->children[i].get());
        }
        break;
      }
    }
  }

  /// Considers a semijoin pre-filter for the leading relation: applicable
  /// when it would otherwise be fully scanned and some inner relation has
  /// its own filter conjunct plus a column-equality join that the leading
  /// relation indexes.
  void PlanSemijoin() {
    if (ctx_.relations.size() < 2) return;
    StepPlan& plan = step_plans_[0];
    if (plan.index >= 0) return;  // already index-driven
    for (int r = 1; r < static_cast<int>(ctx_.relations.size()); ++r) {
      bool has_own_filter = false;
      for (const auto& c : conjuncts_) {
        if (c.mask == (1ull << r)) has_own_filter = true;
      }
      if (!has_own_filter) continue;  // unselective: scan is as good
      for (const auto& c : conjuncts_) {
        if (c.mask != ((1ull << 0) | (1ull << r))) continue;
        const Expr* e = c.expr;
        if (e->kind != ExprKind::kBinary || e->op != BinOp::kEq) continue;
        const Expr* l = e->children[0].get();
        const Expr* rr = e->children[1].get();
        if (l->kind != ExprKind::kColumnRef ||
            rr->kind != ExprKind::kColumnRef) {
          continue;
        }
        auto lc = ResolveColumn(ctx_, *l);
        auto rc = ResolveColumn(ctx_, *rr);
        if (!lc.ok() || !rc.ok()) continue;
        const Expr* outer_col = nullptr;
        const Expr* inner_col = nullptr;
        if (lc->rel == 0 && rc->rel == r) {
          outer_col = l;
          inner_col = rr;
        } else if (rc->rel == 0 && lc->rel == r) {
          outer_col = rr;
          inner_col = l;
        } else {
          continue;
        }
        auto oc = ResolveColumn(ctx_, *outer_col);
        int idx = ctx_.relations[0].table->FindUsableIndex({oc->col});
        if (idx < 0) continue;
        plan.semi_rel = r;
        plan.semi_index = idx;
        plan.semi_probe = inner_col;
        return;
      }
    }
  }

  /// Turns `col LIKE <literal|placeholder>` into ranges of an ordered
  /// index on `col`, on a step that no other index or probe drives. Rows
  /// the ranges skip fail the LIKE conjunct, so results are those of the
  /// scan plan.
  void PlanPrefixRanges() {
    for (int step = 0; step < static_cast<int>(ctx_.relations.size());
         ++step) {
      StepPlan& plan = step_plans_[step];
      if (plan.index >= 0 || plan.in_index >= 0 || plan.semi_rel >= 0) {
        continue;
      }
      const Table* table = ctx_.relations[step].table;
      for (int ci : plan.conjuncts) {
        const Expr* e = conjuncts_[ci].expr;
        if (e->kind != ExprKind::kBinary || e->op != BinOp::kLike ||
            e->negated || conjuncts_[ci].mask != (1ull << step)) {
          continue;
        }
        const Expr* col = e->children[0].get();
        const auto k = e->children[1]->kind;
        if (col->kind != ExprKind::kColumnRef ||
            (k != ExprKind::kLiteral && k != ExprKind::kPlaceholder)) {
          continue;
        }
        auto rc = ResolveColumn(ctx_, *col);
        if (!rc.ok()) continue;
        const int oidx = table->FindOrderedIndex(rc->col);
        if (oidx < 0) continue;
        plan.like_index = oidx;
        plan.like_pattern = e->children[1].get();
        break;
      }
    }
  }

  /// Per-step access plan, computed once per query so the join recursion
  /// does no planning work per outer row (the planning constant dominates
  /// wide scans: TPC-W's 50k-item search paid ~1us/row re-deriving it).
  struct StepPlan {
    int index = -1;                    // usable index on this relation, or -1
    std::vector<const Expr*> probe;    // probe source expr per index column
    std::vector<int> conjuncts;        // conjuncts_ slots with max_rel == step
    // Per conjuncts[i]: it is the `col = <probe>` equality behind one of
    // the index probe's columns. IndexLookup compares that column with the
    // probe value by Value::Compare, which is what `=` does for non-NULL
    // operands, so while `keys_verified` (every probe value non-NULL) the
    // conjunct holds for every candidate and is not evaluated again. A
    // NULL probe value keeps it: `NULL = NULL` is false, yet Compare calls
    // two NULLs equal.
    std::vector<bool> probe_implied;
    bool keys_verified = false;  // set by each index probe of this step
    // For conjuncts[i] referencing ONLY this relation: slot into memo_,
    // else -1. Their verdict depends on tuple[step] alone, so it is cached
    // per RowId — a LIKE over the probed side runs once per distinct row
    // instead of once per outer row.
    std::vector<int> memo_slot;
    // Tri-state per memoized conjunct per RowId: 0 unknown, 1 pass, 2 fail.
    std::vector<std::vector<int8_t>> memo;
    // Semijoin pre-filter (leading relation only): instead of a full
    // scan, drive candidates from inner relation `semi_rel`'s rows
    // that pass its single-relation conjuncts, probing this relation's
    // `semi_index` with the inner join column. Candidates are sorted and
    // deduplicated, which IS full-scan order, and rows skipped this way
    // provably emit nothing (they fail the join/filter conjuncts later),
    // so results are identical to the scan plan.
    int semi_rel = -1;
    int semi_index = -1;
    const Expr* semi_probe = nullptr;  // inner-side join column expr
    // IN-list probe: `col IN (values)` on an indexed column turns the
    // scan into one index probe per list element. Candidates are sorted +
    // deduplicated (full-scan order); skipped rows fail the IN conjunct
    // by definition.
    int in_index = -1;
    std::vector<const Expr*> in_items;
    // Prefix range: `col LIKE pattern` over ordered index `like_index`
    // reads the rows whose `col` starts with the pattern's literal prefix,
    // sorted + deduplicated (full-scan order); see PrefixCandidates.
    int like_index = -1;
    const Expr* like_pattern = nullptr;
  };

  /// Collects equality keys usable to probe relation `step` given the
  /// relations [0, step) are bound.
  void CollectEqKeys(int step, std::vector<EqKey>* keys) {
    for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
      const Expr* e = conjuncts_[ci].expr;
      if (e->kind != ExprKind::kBinary || e->op != BinOp::kEq) continue;
      const Expr* l = e->children[0].get();
      const Expr* r = e->children[1].get();
      for (int side = 0; side < 2; ++side) {
        const Expr* col = side == 0 ? l : r;
        const Expr* other = side == 0 ? r : l;
        if (col->kind != ExprKind::kColumnRef) continue;
        auto rc = ResolveColumn(ctx_, *col);
        if (!rc.ok() || rc->rel != step) continue;
        // The other side must be computable from bound relations only.
        auto omask = RelMask(ctx_, *other);
        if (!omask.ok()) continue;
        uint64_t bound = (step == 0) ? 0 : ((1ull << step) - 1);
        if ((*omask & ~bound) != 0) continue;
        if (HasAggregate(*other)) continue;
        keys->push_back({rc->col, other, static_cast<int>(ci)});
        break;
      }
    }
  }

  /// Enumerates candidate rows of relation `step` under the current
  /// partially-bound tuple, following the precomputed step plan. Counts
  /// the rows it touched into rows_examined, and the rows the reference
  /// scan plan examines at this step into cost_rows.
  Status CandidateRows(int step, const Tuple& tuple,
                       std::vector<RowId>* out) {
    const Table* table = ctx_.relations[step].table;
    StepPlan& plan = step_plans_[step];
    if (step == 0 && plan.semi_rel >= 0) {
      const uint64_t examined = ctx_.rows_examined;
      const uint64_t cost = ctx_.cost_rows;
      if (SemijoinCandidates(out)) return Status::OK();
      // The pre-filter hit an eval error: forget what it counted and fall
      // back to the scan, which surfaces the error if it is reached.
      out->clear();
      ctx_.rows_examined = examined;
      ctx_.cost_rows = cost;
    }
    if (plan.in_index >= 0) {
      bool ok = true;
      for (const Expr* item : plan.in_items) {
        auto v = LeafRef(ctx_, tuple, *item);
        if (!v.ok()) {
          ok = false;  // unbound placeholder: surface via the scan path
          break;
        }
        table->IndexLookup(plan.in_index, {&*v, 1}, out);
      }
      if (ok) {
        std::sort(out->begin(), out->end());
        out->erase(std::unique(out->begin(), out->end()), out->end());
        ctx_.rows_examined += out->size();
        ctx_.cost_rows += table->num_rows();  // the scan's candidates
        return Status::OK();
      }
      out->clear();
    }
    if (plan.like_index >= 0 && PrefixCandidates(step, tuple, out)) {
      ctx_.rows_examined += out->size();
      ctx_.cost_rows += table->num_rows();  // the scan's candidates
      return Status::OK();
    }
    if (plan.index >= 0) {
      // Build probe key in index column order, leaves read in place.
      const size_t n = plan.probe.size();
      probe_keys_.resize(n);
      probe_scratch_.resize(n);
      plan.keys_verified = true;
      for (size_t i = 0; i < n; ++i) {
        auto v = EvalRef(ctx_, tuple, *plan.probe[i], &probe_scratch_[i]);
        if (!v.ok()) return v.status();
        probe_keys_[i] = *v;
        plan.keys_verified &= !(*v)->is_null();
      }
      table->IndexLookup(plan.index, probe_keys_, out);
    } else {
      // Full scan.
      for (size_t i = 0; i < table->NumSlots(); ++i) {
        RowId id = static_cast<RowId>(i);
        if (table->IsLive(id)) out->push_back(id);
      }
    }
    ctx_.rows_examined += out->size();
    ctx_.cost_rows += out->size();
    return Status::OK();
  }

  /// Reads the candidates of a prefix-range step. util::LikeMatch folds
  /// ASCII case, so the pattern's prefix (up to the first '%' or '_') is
  /// looked up in every case variant of its letters. Returns false, and
  /// leaves the step to the scan, when the pattern is unbound or not a
  /// string, has no prefix, or has more than kMaxFoldedLetters letters.
  bool PrefixCandidates(int step, const Tuple& tuple,
                        std::vector<RowId>* out) {
    constexpr int kMaxFoldedLetters = 10;
    const StepPlan& plan = step_plans_[step];
    Value scratch;
    auto pattern = EvalRef(ctx_, tuple, *plan.like_pattern, &scratch);
    if (!pattern.ok() || !(*pattern)->is_string()) return false;
    const std::string& p = (*pattern)->AsString();
    std::string prefix = p.substr(0, p.find_first_of("%_"));
    std::vector<size_t> letters;  // positions whose case LIKE folds
    for (size_t i = 0; i < prefix.size(); ++i) {
      const char c = prefix[i];
      if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
        letters.push_back(i);
      }
    }
    if (prefix.empty() ||
        letters.size() > static_cast<size_t>(kMaxFoldedLetters)) {
      return false;
    }
    const Table* table = ctx_.relations[step].table;
    for (uint32_t mask = 0; mask < (1u << letters.size()); ++mask) {
      for (size_t b = 0; b < letters.size(); ++b) {
        char& c = prefix[letters[b]];
        c = static_cast<char>((mask >> b) & 1 ? (c & ~0x20) : (c | 0x20));
      }
      table->OrderedPrefixRows(plan.like_index, prefix, out);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    return true;
  }

  /// Evaluates conjunct `i` of `step` for the row bound at tuple[step],
  /// through the per-RowId memo when the conjunct is single-relation.
  Result<bool> EvalStepConjunct(int step, size_t i, const Tuple& tuple) {
    StepPlan& plan = step_plans_[step];
    const Conjunct& c = conjuncts_[plan.conjuncts[i]];
    const int slot = plan.memo_slot[i];
    if (slot < 0) {
      auto v = EvalExpr(ctx_, tuple, *c.expr);
      if (!v.ok()) return v.status();
      return Truthy(*v);
    }
    std::vector<int8_t>& memo = plan.memo[slot];
    const RowId id = tuple[step];
    if (memo.empty()) {
      memo.resize(ctx_.relations[step].table->NumSlots(), 0);
    }
    if (id < memo.size() && memo[id] != 0) return memo[id] == 1;
    auto v = EvalExpr(ctx_, tuple, *c.expr);
    if (!v.ok()) return v.status();
    const bool pass = Truthy(*v);
    if (id < memo.size()) memo[id] = pass ? 1 : 2;
    return pass;
  }

  /// Applies all conjuncts whose highest referenced relation == step, in
  /// original conjunct order (short-circuit and error semantics preserved),
  /// but for the equalities the step's index probe verified.
  Result<bool> StepPredicatesPass(int step, const Tuple& tuple) {
    StepPlan& plan = step_plans_[step];
    for (size_t i = 0; i < plan.conjuncts.size(); ++i) {
      if (plan.keys_verified && plan.probe_implied[i]) continue;
      auto pass = EvalStepConjunct(step, i, tuple);
      if (!pass.ok()) return pass.status();
      if (!*pass) return false;
    }
    return true;
  }

  /// Runs the semijoin pre-filter for the leading relation: enumerates the
  /// inner relation, keeps rows passing its single-relation conjuncts, and
  /// probes the leading relation's index with the join column. Sorted,
  /// deduplicated RowIds == full-scan enumeration order. Returns false
  /// if an evaluation of the inner scan errors: the caller falls back to
  /// the scan so error surfacing stays on the original path.
  bool SemijoinCandidates(std::vector<RowId>* out) {
    StepPlan& plan = step_plans_[0];
    StepPlan& rplan = step_plans_[plan.semi_rel];
    const Table* rtable = ctx_.relations[plan.semi_rel].table;
    const Table* table = ctx_.relations[0].table;
    Tuple tmp(ctx_.relations.size(), 0);
    for (size_t i = 0; i < rtable->NumSlots(); ++i) {
      RowId id = static_cast<RowId>(i);
      if (!rtable->IsLive(id)) continue;
      ++ctx_.rows_examined;
      tmp[plan.semi_rel] = id;
      bool pass = true;
      for (size_t ci = 0; ci < rplan.conjuncts.size(); ++ci) {
        if (rplan.memo_slot[ci] < 0) continue;  // needs other relations
        auto v = EvalStepConjunct(plan.semi_rel, ci, tmp);
        if (!v.ok()) return false;
        if (!*v) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      Value scratch;
      auto key = EvalRef(ctx_, tmp, *plan.semi_probe, &scratch);
      if (!key.ok()) return false;
      table->IndexLookup(plan.semi_index, {&*key, 1}, out);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    ctx_.rows_examined += out->size();
    // The scan examines every live leading row; the inner scan above is
    // this plan's own work, not the scan's.
    ctx_.cost_rows += table->num_rows();
    CountSkippedRows(*out);
    return true;
  }

  /// Adds to cost_rows what the scan plan examines below the live leading
  /// rows the pre-filter skipped (`candidates` is sorted, so a merge walk
  /// finds them). Such a row emits nothing, but the scan still walks the
  /// steps after it while its conjuncts pass. The walk is bookkeeping: it
  /// stops once cost_rows reaches the caller's bound, past which the
  /// count makes no difference, and an evaluation error (which the scan
  /// plan would fail on) ends it too, leaving the probe plan's result as
  /// it is uncounted.
  void CountSkippedRows(const std::vector<RowId>& candidates) {
    if (ctx_.cost_rows >= ctx_.cost_bound) return;
    const Table* table = ctx_.relations[0].table;
    const uint64_t examined = ctx_.rows_examined;
    Tuple tuple(ctx_.relations.size(), 0);
    auto next = candidates.begin();
    for (size_t i = 0; i < table->NumSlots(); ++i) {
      RowId id = static_cast<RowId>(i);
      if (next != candidates.end() && *next == id) {
        ++next;
        continue;
      }
      if (!table->IsLive(id)) continue;
      tuple[0] = id;
      auto pass = StepPredicatesPass(0, tuple);
      if (!pass.ok() || (*pass && !CountScanRows(1, tuple)) ||
          ctx_.cost_rows >= ctx_.cost_bound) {
        break;
      }
    }
    ctx_.rows_examined = examined;  // the walk is not the plan's work
  }

  /// Adds to cost_rows what the scan plan examines at `step` and below
  /// under the bound prefix tuple[0, step). The last step counts its
  /// candidates whatever their verdict, so its conjuncts are skipped.
  /// Runs inside CandidateRows(0), so the buffers of steps >= 1 are free.
  bool CountScanRows(int step, Tuple& tuple) {
    std::vector<RowId>& candidates = cand_buf_[step];
    candidates.clear();
    if (!CandidateRows(step, tuple, &candidates).ok()) return false;
    if (step + 1 == static_cast<int>(ctx_.relations.size())) return true;
    for (RowId id : candidates) {
      tuple[step] = id;
      auto pass = StepPredicatesPass(step, tuple);
      if (!pass.ok()) return false;
      if (*pass && !CountScanRows(step + 1, tuple)) return false;
    }
    return true;
  }

  /// Conjuncts that reference no relation at all (constant predicates).
  Result<bool> ConstPredicatesPass() {
    Tuple empty(ctx_.relations.size(), 0);
    for (const auto& c : conjuncts_) {
      if (c.max_rel != -1) continue;
      auto v = EvalExpr(ctx_, empty, *c.expr);
      if (!v.ok()) return v.status();
      if (!Truthy(*v)) return false;
    }
    return true;
  }

  /// Runs the join, invoking `emit` on each fully-bound surviving tuple.
  Status RunJoin(const std::function<Status(const Tuple&)>& emit) {
    auto cpass = ConstPredicatesPass();
    if (!cpass.ok()) return cpass.status();
    if (!*cpass) return Status::OK();

    Tuple tuple(ctx_.relations.size(), 0);
    cand_buf_.resize(ctx_.relations.size());
    std::function<Status(int)> recurse = [&](int step) -> Status {
      if (step == static_cast<int>(ctx_.relations.size())) {
        return emit(tuple);
      }
      // Depth == step, so each recursion level owns its buffer; reuse
      // across outer rows saves one allocation per probe.
      std::vector<RowId>& candidates = cand_buf_[step];
      candidates.clear();
      APOLLO_RETURN_NOT_OK(CandidateRows(step, tuple, &candidates));
      for (RowId id : candidates) {
        tuple[step] = id;
        auto pass = StepPredicatesPass(step, tuple);
        if (!pass.ok()) return pass.status();
        if (!*pass) continue;
        APOLLO_RETURN_NOT_OK(recurse(step + 1));
      }
      return Status::OK();
    };
    return recurse(0);
  }

  /// Expands the select list into concrete output expressions + names.
  /// '*' expands to every column of every relation.
  Status ExpandItems(std::vector<const Expr*>* exprs,
                     std::vector<std::string>* names,
                     std::vector<std::unique_ptr<Expr>>* owned) {
    for (const auto& item : sel_.items) {
      if (item.expr->kind == ExprKind::kStar) {
        for (const auto& rel : ctx_.relations) {
          if (!item.expr->table.empty() && item.expr->table != rel.name) {
            continue;
          }
          for (const auto& col : rel.table->schema().columns()) {
            owned->push_back(Expr::MakeColumn(rel.name, col.name));
            exprs->push_back(owned->back().get());
            names->push_back(col.name);
          }
        }
        continue;
      }
      exprs->push_back(item.expr.get());
      names->push_back(OutputName(item));
    }
    return Status::OK();
  }

  Result<ResultSetPtr> RunProjection() {
    std::vector<const Expr*> exprs;
    std::vector<std::string> names;
    std::vector<std::unique_ptr<Expr>> owned;
    APOLLO_RETURN_NOT_OK(ExpandItems(&exprs, &names, &owned));
    if (!sel_.distinct && !sel_.order_by.empty() && sel_.limit >= 0) {
      return RunTopN(exprs, names);
    }

    struct OutRow {
      Row values;
      Row order_keys;
    };
    std::vector<OutRow> rows;

    Status st = RunJoin([&](const Tuple& tuple) -> Status {
      OutRow out;
      out.values.reserve(exprs.size());
      for (const Expr* e : exprs) {
        auto v = EvalExpr(ctx_, tuple, *e);
        if (!v.ok()) return v.status();
        out.values.push_back(std::move(*v));
      }
      for (const auto& oi : sel_.order_by) {
        auto v = EvalExpr(ctx_, tuple, *oi.expr);
        if (!v.ok()) return v.status();
        out.order_keys.push_back(std::move(*v));
      }
      rows.push_back(std::move(out));
      return Status::OK();
    });
    APOLLO_RETURN_NOT_OK(st);

    if (sel_.distinct) {
      std::unordered_set<uint64_t> seen;
      std::vector<OutRow> unique;
      for (auto& r : rows) {
        uint64_t h = 0x9e37;
        for (const auto& v : r.values) h = util::HashCombine(h, v.Hash());
        if (seen.insert(h).second) unique.push_back(std::move(r));
      }
      rows = std::move(unique);
    }
    if (!sel_.order_by.empty()) {
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const OutRow& a, const OutRow& b) {
                         for (size_t i = 0; i < sel_.order_by.size(); ++i) {
                           int c = a.order_keys[i].Compare(b.order_keys[i]);
                           if (c != 0) {
                             return sel_.order_by[i].desc ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }
    auto rs = std::make_shared<ResultSet>(names);
    size_t limit = sel_.limit >= 0 ? static_cast<size_t>(sel_.limit)
                                   : rows.size();
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
      rs->AddRow(std::move(rows[i].values));
    }
    rs->set_rows_examined(ctx_.rows_examined);
    if (ctx_.cost_bound > 0) rs->set_cost_rows(ctx_.cost_rows);
    return ResultSetPtr(rs);
  }

  /// ORDER BY ... LIMIT n without DISTINCT. A bounded heap keeps the n
  /// first rows by (order keys, emission sequence): exactly the prefix a
  /// stable sort of every row gives. When every output is a column ref,
  /// only the survivors are projected; the first emitted row is projected
  /// all the same, so an unknown column fails whenever the full path
  /// fails, LIMIT 0 included. Other outputs are projected per row, as
  /// they may fail on any row.
  Result<ResultSetPtr> RunTopN(const std::vector<const Expr*>& exprs,
                               const std::vector<std::string>& names) {
    const size_t limit = static_cast<size_t>(sel_.limit);
    const size_t nkeys = sel_.order_by.size();
    bool lazy = true;
    for (const Expr* e : exprs) lazy &= e->kind == ExprKind::kColumnRef;

    struct Entry {
      Row keys;
      Row values;   // projected outputs, unless lazy
      Tuple tuple;  // bound rows, if lazy
      uint64_t seq = 0;
    };
    // Rank order of key i: <0 when `a` comes first (DESC flips it).
    auto key_cmp = [&](size_t i, const Value& a, const Value& b) {
      const int c = a.Compare(b);
      return sel_.order_by[i].desc ? -c : c;
    };
    auto ranks_before = [&](const Entry& a, const Entry& b) {
      for (size_t i = 0; i < nkeys; ++i) {
        const int c = key_cmp(i, a.keys[i], b.keys[i]);
        if (c != 0) return c < 0;
      }
      return a.seq < b.seq;
    };
    std::vector<Entry> heap;  // max-heap by rank: front is the last kept
    std::vector<const Value*> keys(nkeys);
    std::vector<Value> key_scratch(nkeys);
    Row values;
    uint64_t seq = 0;

    Status st = RunJoin([&](const Tuple& tuple) -> Status {
      values.clear();
      if (!lazy || seq == 0) {
        for (const Expr* e : exprs) {
          auto v = EvalExpr(ctx_, tuple, *e);
          if (!v.ok()) return v.status();
          values.push_back(std::move(*v));
        }
      }
      for (size_t i = 0; i < nkeys; ++i) {
        auto k = EvalRef(ctx_, tuple, *sel_.order_by[i].expr, &key_scratch[i]);
        if (!k.ok()) return k.status();
        keys[i] = *k;
      }
      const uint64_t row_seq = seq++;
      if (heap.size() == limit) {
        if (limit == 0) return Status::OK();
        // A later row with equal keys ranks after the front, so only
        // strictly smaller keys displace it.
        int c = 0;
        for (size_t i = 0; i < nkeys && c == 0; ++i) {
          c = key_cmp(i, *keys[i], heap.front().keys[i]);
        }
        if (c >= 0) return Status::OK();
        std::pop_heap(heap.begin(), heap.end(), ranks_before);
      } else {
        heap.emplace_back();
      }
      Entry& slot = heap.back();
      slot.keys.resize(nkeys);
      for (size_t i = 0; i < nkeys; ++i) slot.keys[i] = *keys[i];
      if (lazy) {
        slot.tuple = tuple;
      } else {
        slot.values = std::move(values);
      }
      slot.seq = row_seq;
      std::push_heap(heap.begin(), heap.end(), ranks_before);
      return Status::OK();
    });
    APOLLO_RETURN_NOT_OK(st);

    std::sort_heap(heap.begin(), heap.end(), ranks_before);
    auto rs = std::make_shared<ResultSet>(names);
    for (Entry& entry : heap) {
      if (lazy) {
        entry.values.clear();
        for (const Expr* e : exprs) {
          auto v = EvalExpr(ctx_, entry.tuple, *e);
          if (!v.ok()) return v.status();
          entry.values.push_back(std::move(*v));
        }
      }
      rs->AddRow(std::move(entry.values));
    }
    rs->set_rows_examined(ctx_.rows_examined);
    if (ctx_.cost_bound > 0) rs->set_cost_rows(ctx_.cost_rows);
    return ResultSetPtr(rs);
  }

  /// COUNT(*), MIN(col) and MAX(col) over one relation with no WHERE and
  /// no GROUP BY read the live row count and the ends of an ordered index
  /// on `col` instead of scanning. cost_rows stays the scan's: every live
  /// row. Returns null for any other shape, and when an argument does not
  /// resolve (the scan reports that as it always has).
  ResultSetPtr IndexAggregate() {
    if (ctx_.relations.size() != 1 || sel_.where != nullptr ||
        !sel_.group_by.empty() || !sel_.order_by.empty()) {
      return nullptr;
    }
    const Table* table = ctx_.relations[0].table;
    std::vector<std::string> names;
    Row row;
    uint64_t examined = 0;
    for (const auto& item : sel_.items) {
      const Expr& e = *item.expr;
      if (e.kind != ExprKind::kFuncCall || e.distinct) return nullptr;
      const Expr& arg = *e.children[0];
      if (e.func == "COUNT" && arg.kind == ExprKind::kStar) {
        row.push_back(Value::Int(static_cast<int64_t>(table->num_rows())));
      } else if ((e.func == "MIN" || e.func == "MAX") &&
                 arg.kind == ExprKind::kColumnRef) {
        auto rc = ResolveColumn(ctx_, arg);
        if (!rc.ok()) return nullptr;
        const int oidx = table->FindOrderedIndex(rc->col);
        if (oidx < 0) return nullptr;
        const std::optional<RowId> id = e.func == "MIN"
                                            ? table->OrderedMin(oidx)
                                            : table->OrderedMax(oidx);
        row.push_back(id ? table->At(*id)[rc->col] : Value::Null());
        if (id) ++examined;
      } else {
        return nullptr;
      }
      names.push_back(OutputName(item));
    }
    auto rs = std::make_shared<ResultSet>(names);
    if (sel_.limit != 0) rs->AddRow(std::move(row));
    rs->set_rows_examined(examined);
    if (ctx_.cost_bound > 0) rs->set_cost_rows(table->num_rows());
    return rs;
  }

  /// Collects every distinct aggregate call node reachable from the select
  /// list (aggregates cannot nest, so recursion stops at a FuncCall).
  static void CollectAggNodes(const Expr& e,
                              std::vector<const Expr*>* out) {
    if (e.kind == ExprKind::kFuncCall) {
      out->push_back(&e);
      return;
    }
    for (const auto& c : e.children) CollectAggNodes(*c, out);
  }

  Result<ResultSetPtr> RunAggregate() {
    // Select items may be aggregate calls, group-by expressions, or any
    // scalar expression over them (e.g. MAX(O_ID) - 3333). Functional
    // dependence of bare columns on the group key is assumed, as in
    // MySQL's traditional behaviour.
    std::vector<std::string> names;
    for (const auto& item : sel_.items) names.push_back(OutputName(item));

    std::vector<const Expr*> agg_nodes;
    for (const auto& item : sel_.items) {
      CollectAggNodes(*item.expr, &agg_nodes);
    }

    struct Group {
      Tuple rep;                   // representative input tuple
      std::vector<AggState> aggs;  // one per aggregate node
    };
    std::unordered_map<uint64_t, Group> groups;
    std::vector<uint64_t> group_order;
    // Without GROUP BY every row lands in the first row's group, so rows
    // after it skip the key hashing and the map.
    Group* single = nullptr;
    Value scratch;  // each EvalRef result is used before the next call
    const Value one = Value::Int(1);

    Status st = RunJoin([&](const Tuple& tuple) -> Status {
      Group* grp = single;
      if (grp == nullptr) {
        uint64_t h = 0x51ab;
        for (size_t i = 0; i < sel_.group_by.size(); ++i) {
          auto v = EvalRef(ctx_, tuple, *sel_.group_by[i], &scratch);
          if (!v.ok()) return v.status();
          h = util::HashCombine(h, (*v)->Hash());
        }
        auto [it, inserted] = groups.try_emplace(h);
        grp = &it->second;
        if (inserted) {
          grp->rep = tuple;
          grp->aggs.resize(agg_nodes.size());
          group_order.push_back(h);
          if (sel_.group_by.empty()) single = grp;
        }
      }
      for (size_t i = 0; i < agg_nodes.size(); ++i) {
        const Expr& e = *agg_nodes[i];
        AggState& agg = grp->aggs[i];
        const Expr& arg = *e.children[0];
        const Value* ref = &one;
        if (arg.kind != ExprKind::kStar) {
          auto ev = EvalRef(ctx_, tuple, arg, &scratch);
          if (!ev.ok()) return ev.status();
          ref = *ev;
        }
        const Value& v = *ref;
        if (v.is_null()) continue;  // SQL aggregates skip NULLs
        if (e.distinct && !agg.distinct.insert(v.Hash()).second) continue;
        ++agg.count;
        if (v.is_numeric()) {
          if (v.is_int() && agg.sum_is_int) {
            agg.isum += v.AsInt();
          } else {
            if (agg.sum_is_int) {
              agg.sum = static_cast<double>(agg.isum);
              agg.sum_is_int = false;
            }
            agg.sum += v.ToDouble();
          }
        }
        if (!agg.any || v.Compare(agg.min) < 0) agg.min = v;
        if (!agg.any || v.Compare(agg.max) > 0) agg.max = v;
        agg.any = true;
      }
      return Status::OK();
    });
    APOLLO_RETURN_NOT_OK(st);

    // With no GROUP BY and no input rows, aggregates still yield one row
    // (over an empty representative tuple; bare column refs yield NULL
    // only through aggregate args, which do not run in this case).
    bool synthetic_empty_group = false;
    if (sel_.group_by.empty() && groups.empty()) {
      Group g;
      g.rep.assign(ctx_.relations.size(), 0);
      g.aggs.resize(agg_nodes.size());
      uint64_t h = 0x51ab;
      groups.emplace(h, std::move(g));
      group_order.push_back(h);
      synthetic_empty_group = true;
    }

    auto finalize_agg = [&](const AggState& agg,
                            const Expr& e) -> Result<Value> {
      const std::string& f = e.func;
      if (f == "COUNT") return Value::Int(agg.count);
      if (!agg.any) return Value::Null();
      if (f == "MIN") return agg.min;
      if (f == "MAX") return agg.max;
      if (f == "SUM") {
        return agg.sum_is_int ? Value::Int(agg.isum)
                              : Value::Double(agg.sum);
      }
      if (f == "AVG") {
        double total =
            agg.sum_is_int ? static_cast<double>(agg.isum) : agg.sum;
        return Value::Double(total / static_cast<double>(agg.count));
      }
      return Status::Unimplemented("unknown aggregate " + f);
    };

    // One group's output row: its aggregate values once, then every
    // select item over them.
    std::unordered_map<const Expr*, Value> agg_values;
    auto finalize = [&](const Group& grp, Row* out) -> Status {
      agg_values.clear();
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        auto v = finalize_agg(grp.aggs[a], *agg_nodes[a]);
        if (!v.ok()) return v.status();
        agg_values.emplace(agg_nodes[a], std::move(*v));
      }
      for (const auto& item : sel_.items) {
        const Expr& e = *item.expr;
        if (synthetic_empty_group && !HasAggregate(e)) {
          out->push_back(Value::Null());  // no rows: bare expressions
          continue;                       // have no value
        }
        ctx_.agg_values = &agg_values;
        auto v = EvalExpr(ctx_, grp.rep, e);
        ctx_.agg_values = nullptr;
        if (!v.ok()) return v.status();
        out->push_back(std::move(*v));
      }
      return Status::OK();
    };

    // Map ORDER BY expressions onto output columns (by alias, by column
    // name, or by identical printed text).
    std::vector<int> order_cols;
    for (const auto& oi : sel_.order_by) {
      std::string txt = sql::PrintExpr(*oi.expr);
      int found = -1;
      for (size_t i = 0; i < sel_.items.size(); ++i) {
        if (!sel_.items[i].alias.empty() &&
            (txt == sel_.items[i].alias ||
             (oi.expr->kind == ExprKind::kColumnRef &&
              oi.expr->column == sel_.items[i].alias))) {
          found = static_cast<int>(i);
          break;
        }
        if (sql::PrintExpr(*sel_.items[i].expr) == txt) {
          found = static_cast<int>(i);
          break;
        }
        if (oi.expr->kind == ExprKind::kColumnRef &&
            sel_.items[i].expr->kind == ExprKind::kColumnRef &&
            sel_.items[i].expr->column == oi.expr->column) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found < 0) {
        return Status::Unimplemented(
            "ORDER BY expression not in aggregate select list: " + txt);
      }
      order_cols.push_back(found);
    }

    struct OutRow {
      Row values;
    };
    std::vector<OutRow> rows;
    rows.reserve(groups.size());
    for (uint64_t h : group_order) {
      OutRow out;
      APOLLO_RETURN_NOT_OK(finalize(groups[h], &out.values));
      rows.push_back(std::move(out));
    }
    if (!order_cols.empty()) {
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const OutRow& a, const OutRow& b) {
                         for (size_t i = 0; i < order_cols.size(); ++i) {
                           int c = a.values[order_cols[i]].Compare(
                               b.values[order_cols[i]]);
                           if (c != 0) {
                             return sel_.order_by[i].desc ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }
    auto rs = std::make_shared<ResultSet>(names);
    size_t limit = sel_.limit >= 0 ? static_cast<size_t>(sel_.limit)
                                   : rows.size();
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
      rs->AddRow(std::move(rows[i].values));
    }
    rs->set_rows_examined(ctx_.rows_examined);
    if (ctx_.cost_bound > 0) rs->set_cost_rows(ctx_.cost_rows);
    return ResultSetPtr(rs);
  }

  Catalog* catalog_;
  const sql::SelectStmt& sel_;
  ExecContext ctx_;
  const bool probe_plans_;  // IN-list, semijoin, prefix range, index aggregate
  std::vector<Conjunct> conjuncts_;
  std::vector<StepPlan> step_plans_;
  std::vector<const Value*> probe_keys_;  // index probe key, in place
  std::vector<Value> probe_scratch_;      // probe values that are not leaves
  std::vector<std::vector<RowId>> cand_buf_;  // per-step candidate buffers
};

/// Shared row-matching for UPDATE / DELETE: single relation, index-aware.
Result<std::vector<RowId>> MatchRows(Catalog* catalog,
                                     const std::string& table_name,
                                     const Expr* where,
                                     ExecContext& ctx) {
  Table* table = catalog->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("unknown table " + table_name);
  }
  ctx.relations.push_back({table->schema().table_name(), table});

  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);

  // Equality keys on literals.
  std::vector<EqKey> keys;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const Expr* c = conjuncts[ci];
    if (c->kind != ExprKind::kBinary || c->op != BinOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const Expr* col = c->children[side].get();
      const Expr* other = c->children[1 - side].get();
      if (col->kind != ExprKind::kColumnRef) continue;
      bool bindable =
          other->kind == ExprKind::kLiteral ||
          (other->kind == ExprKind::kPlaceholder && ctx.params != nullptr);
      if (!bindable) continue;
      auto rc = ResolveColumn(ctx, *col);
      if (!rc.ok()) continue;
      keys.push_back({rc->col, other, static_cast<int>(ci)});
      break;
    }
  }

  std::vector<RowId> candidates;
  Tuple tuple(1, 0);
  bool used_index = false;
  // The `=` conjuncts behind the probe's columns. IndexLookup compared
  // those cells by Value::Compare, which is `=` for non-NULL operands, so
  // while `keys_verified` (every probe value non-NULL) they hold for every
  // candidate (see StepPlan::probe_implied).
  std::vector<bool> probe_implied(conjuncts.size(), false);
  bool keys_verified = false;
  if (!keys.empty()) {
    std::vector<int> eq_cols;
    for (const auto& k : keys) eq_cols.push_back(k.col);
    int idx = table->FindUsableIndex(eq_cols);
    if (idx >= 0) {
      std::vector<const Value*> probe;
      keys_verified = true;
      for (int pos : table->IndexColumns(idx)) {
        const EqKey* src = nullptr;
        for (const auto& k : keys) {
          if (k.col == pos) {
            src = &k;
            break;
          }
        }
        auto v = LeafRef(ctx, tuple, *src->value_expr);
        if (!v.ok()) return v.status();
        probe.push_back(*v);
        keys_verified &= !(*v)->is_null();
        probe_implied[src->conjunct] = true;
      }
      table->IndexLookup(idx, probe, &candidates);
      used_index = true;
    }
  }
  if (!used_index) {
    for (size_t i = 0; i < table->NumSlots(); ++i) {
      RowId id = static_cast<RowId>(i);
      if (table->IsLive(id)) candidates.push_back(id);
    }
  }
  ctx.rows_examined += candidates.size();

  std::vector<RowId> matched;
  for (RowId id : candidates) {
    tuple[0] = id;
    bool pass = true;
    for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
      if (keys_verified && probe_implied[ci]) continue;
      auto v = EvalExpr(ctx, tuple, *conjuncts[ci]);
      if (!v.ok()) return v.status();
      if (!Truthy(*v)) {
        pass = false;
        break;
      }
    }
    if (pass) matched.push_back(id);
  }
  return matched;
}

Result<ResultSetPtr> RunInsert(Catalog* catalog, const sql::InsertStmt& ins,
                               const std::vector<Value>* params,
                               bool count_cost) {
  Table* table = catalog->GetTable(ins.table);
  if (table == nullptr) {
    return Status::NotFound("unknown table " + ins.table);
  }
  const Schema& schema = table->schema();

  // Map insert columns to schema positions.
  std::vector<int> positions;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& c : ins.columns) {
      int pos = schema.ColumnIndex(c);
      if (pos < 0) {
        return Status::NotFound("unknown column " + c + " in INSERT");
      }
      positions.push_back(pos);
    }
  }

  // Every row is built and checked before any is inserted, so a failing
  // statement changes nothing (the caller bumps no version on an error).
  ExecContext ctx;
  ctx.params = params;
  Tuple empty;
  std::vector<Row> rows;
  rows.reserve(ins.rows.size());
  for (const auto& row_exprs : ins.rows) {
    if (row_exprs.size() != positions.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    Row& row = rows.emplace_back(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      auto v = EvalExpr(ctx, empty, *row_exprs[i]);
      if (!v.ok()) return v.status();
      row[positions[i]] = std::move(*v);
    }
    APOLLO_RETURN_NOT_OK(table->CoerceRow(&row));
  }
  const uint64_t affected = rows.size();
  for (Row& row : rows) APOLLO_RETURN_NOT_OK(table->Insert(std::move(row)));
  auto rs = std::make_shared<ResultSet>();
  rs->set_affected_rows(affected);
  rs->set_rows_examined(affected);
  if (count_cost) rs->set_cost_rows(affected);
  return ResultSetPtr(rs);
}

Result<ResultSetPtr> RunUpdate(Catalog* catalog, const sql::UpdateStmt& upd,
                               const std::vector<Value>* params,
                               bool count_cost) {
  ExecContext ctx;
  ctx.params = params;
  auto matched = MatchRows(catalog, upd.table, upd.where.get(), ctx);
  if (!matched.ok()) return matched.status();
  Table* table = catalog->GetTable(upd.table);

  std::vector<int> col_indexes;
  for (const auto& [col, _] : upd.assignments) {
    int pos = table->schema().ColumnIndex(col);
    if (pos < 0) {
      return Status::NotFound("unknown column " + col + " in UPDATE");
    }
    col_indexes.push_back(pos);
  }
  // Every matched row's new values are evaluated (against the old rows)
  // and checked before any row changes, so a failing statement changes
  // nothing.
  Tuple tuple(1, 0);
  std::vector<std::vector<Value>> new_values(matched->size());
  for (size_t r = 0; r < matched->size(); ++r) {
    tuple[0] = (*matched)[r];
    for (size_t i = 0; i < upd.assignments.size(); ++i) {
      auto v = EvalExpr(ctx, tuple, *upd.assignments[i].second);
      if (!v.ok()) return v.status();
      APOLLO_RETURN_NOT_OK(table->CoerceValue(col_indexes[i], &*v));
      new_values[r].push_back(std::move(*v));
    }
  }
  for (size_t r = 0; r < matched->size(); ++r) {
    table->UpdateRow((*matched)[r], col_indexes, new_values[r]);
  }
  auto rs = std::make_shared<ResultSet>();
  rs->set_affected_rows(matched->size());
  rs->set_rows_examined(ctx.rows_examined);
  if (count_cost) rs->set_cost_rows(ctx.rows_examined);  // one plan
  return ResultSetPtr(rs);
}

Result<ResultSetPtr> RunDelete(Catalog* catalog, const sql::DeleteStmt& del,
                               const std::vector<Value>* params,
                               bool count_cost) {
  ExecContext ctx;
  ctx.params = params;
  auto matched = MatchRows(catalog, del.table, del.where.get(), ctx);
  if (!matched.ok()) return matched.status();
  Table* table = catalog->GetTable(del.table);
  for (RowId id : *matched) table->DeleteRow(id);
  auto rs = std::make_shared<ResultSet>();
  rs->set_affected_rows(matched->size());
  rs->set_rows_examined(ctx.rows_examined);
  if (count_cost) rs->set_cost_rows(ctx.rows_examined);  // one plan
  return ResultSetPtr(rs);
}

}  // namespace

util::Result<common::ResultSetPtr> Executor::Execute(
    const sql::Statement& stmt) {
  return Execute(stmt, nullptr);
}

util::Result<common::ResultSetPtr> Executor::Execute(
    const sql::Statement& stmt, const std::vector<common::Value>* params,
    CostRows cost) {
  const bool count_cost = cost.bound > 0;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      SelectRunner runner(catalog_, *stmt.select, params,
                          semijoin_prefilter_, cost.bound);
      return runner.Run();
    }
    case sql::StatementKind::kInsert:
      return RunInsert(catalog_, *stmt.insert, params, count_cost);
    case sql::StatementKind::kUpdate:
      return RunUpdate(catalog_, *stmt.update, params, count_cost);
    case sql::StatementKind::kDelete:
      return RunDelete(catalog_, *stmt.del, params, count_cost);
  }
  return util::Status::Internal("unreachable statement kind");
}

}  // namespace apollo::db
