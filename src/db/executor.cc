#include "db/executor.h"

#include <algorithm>
#include <cmath>
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
  // Resolution cache: column-ref node -> slot.
  std::unordered_map<const Expr*, ResolvedColumn> resolution;
  // Finalized aggregate values for the group currently being projected
  // (set only during aggregate finalization, enabling expressions over
  // aggregates such as MAX(O_ID) - 3333).
  const std::unordered_map<const Expr*, Value>* agg_values = nullptr;
  // Bound parameter values for prepared execution: placeholder expressions
  // index into this vector. Null for plain text execution, where a
  // placeholder is an error.
  const std::vector<Value>* params = nullptr;
  uint64_t rows_examined = 0;
  // Rows the reference scan plan examines (ResultSet::cost_rows); exact
  // only when `count_cost` is set, which enables the skipped-row walk.
  bool count_cost = false;
  uint64_t cost_rows = 0;
};

/// A join tuple: one live RowId per relation (only the first `bound` are
/// meaningful during join recursion).
using Tuple = std::vector<RowId>;

Result<ResolvedColumn> ResolveColumn(ExecContext& ctx, const Expr& e) {
  auto it = ctx.resolution.find(&e);
  if (it != ctx.resolution.end()) return it->second;
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
  ctx.resolution.emplace(&e, rc);
  return rc;
}

bool Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int()) return v.AsInt() != 0;
  if (v.is_double()) return v.AsDoubleRaw() != 0.0;
  return !v.AsString().empty();
}

Result<Value> EvalExpr(ExecContext& ctx, const Tuple& tuple, const Expr& e);

Result<Value> EvalBinary(ExecContext& ctx, const Tuple& tuple,
                         const Expr& e) {
  // AND/OR short-circuit.
  if (e.op == BinOp::kAnd || e.op == BinOp::kOr) {
    auto l = EvalExpr(ctx, tuple, *e.children[0]);
    if (!l.ok()) return l;
    bool lv = Truthy(*l);
    if (e.op == BinOp::kAnd && !lv) return Value::Int(0);
    if (e.op == BinOp::kOr && lv) return Value::Int(1);
    auto r = EvalExpr(ctx, tuple, *e.children[1]);
    if (!r.ok()) return r;
    return Value::Int(Truthy(*r) ? 1 : 0);
  }
  auto l = EvalExpr(ctx, tuple, *e.children[0]);
  if (!l.ok()) return l;
  auto r = EvalExpr(ctx, tuple, *e.children[1]);
  if (!r.ok()) return r;
  const Value& a = *l;
  const Value& b = *r;
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
      return e.literal;
    case ExprKind::kPlaceholder:
      if (ctx.params != nullptr &&
          e.placeholder_index >= 0 &&
          static_cast<size_t>(e.placeholder_index) < ctx.params->size()) {
        return (*ctx.params)[e.placeholder_index];
      }
      return Status::InvalidArgument("unbound placeholder in execution");
    case ExprKind::kColumnRef: {
      auto rc = ResolveColumn(ctx, e);
      if (!rc.ok()) return rc.status();
      return ctx.relations[rc->rel].table->At(tuple[rc->rel])[rc->col];
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' outside select list / COUNT");
    case ExprKind::kUnaryMinus: {
      auto v = EvalExpr(ctx, tuple, *e.children[0]);
      if (!v.ok()) return v;
      if (v->is_null()) return Value::Null();
      if (v->is_int()) return Value::Int(-v->AsInt());
      if (v->is_double()) return Value::Double(-v->AsDoubleRaw());
      return Status::TypeError("unary minus on non-numeric");
    }
    case ExprKind::kNot: {
      auto v = EvalExpr(ctx, tuple, *e.children[0]);
      if (!v.ok()) return v;
      return Value::Int(Truthy(*v) ? 0 : 1);
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
      auto v = EvalExpr(ctx, tuple, *e.children[0]);
      if (!v.ok()) return v;
      if (v->is_null()) return Value::Int(0);
      bool found = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        auto item = EvalExpr(ctx, tuple, *e.children[i]);
        if (!item.ok()) return item;
        if (*v == *item) {
          found = true;
          break;
        }
      }
      if (e.negated) found = !found;
      return Value::Int(found ? 1 : 0);
    }
    case ExprKind::kBetween: {
      auto v = EvalExpr(ctx, tuple, *e.children[0]);
      if (!v.ok()) return v;
      auto lo = EvalExpr(ctx, tuple, *e.children[1]);
      if (!lo.ok()) return lo;
      auto hi = EvalExpr(ctx, tuple, *e.children[2]);
      if (!hi.ok()) return hi;
      if (v->is_null() || lo->is_null() || hi->is_null()) {
        return Value::Int(0);
      }
      bool in = v->Compare(*lo) >= 0 && v->Compare(*hi) <= 0;
      if (e.negated) in = !in;
      return Value::Int(in ? 1 : 0);
    }
    case ExprKind::kIsNull: {
      auto v = EvalExpr(ctx, tuple, *e.children[0]);
      if (!v.ok()) return v;
      bool is_null = v->is_null();
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
};

class SelectRunner {
 public:
  SelectRunner(Catalog* catalog, const sql::SelectStmt& sel,
               const std::vector<Value>* params, bool probe_plans,
               bool count_cost)
      : catalog_(catalog), sel_(sel), probe_plans_(probe_plans) {
    ctx_.params = params;
    ctx_.count_cost = count_cost;
  }

  Result<ResultSetPtr> Run() {
    APOLLO_RETURN_NOT_OK(SetupRelations());
    APOLLO_RETURN_NOT_OK(SetupPredicates());
    bool aggregate = !sel_.group_by.empty();
    for (const auto& item : sel_.items) {
      if (HasAggregate(*item.expr)) aggregate = true;
    }
    Result<ResultSetPtr> rs =
        aggregate ? RunAggregate() : RunProjection();
    return rs;
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
      if (!keys.empty()) {
        std::vector<int> eq_cols;
        for (const auto& k : keys) eq_cols.push_back(k.col);
        plan.index = table->FindUsableIndex(eq_cols);
        if (plan.index >= 0) {
          for (int pos : table->IndexColumns(plan.index)) {
            for (const auto& k : keys) {
              if (k.col == pos) {
                plan.probe.push_back(k.value_expr);
                break;
              }
            }
          }
        }
      }
      for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
        if (conjuncts_[ci].max_rel != step) continue;
        plan.conjuncts.push_back(static_cast<int>(ci));
        if (conjuncts_[ci].mask == (1ull << step)) {
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

  /// Per-step access plan, computed once per query so the join recursion
  /// does no planning work per outer row (the planning constant dominates
  /// wide scans: TPC-W's 50k-item search paid ~1us/row re-deriving it).
  struct StepPlan {
    int index = -1;                    // usable index on this relation, or -1
    std::vector<const Expr*> probe;    // probe source expr per index column
    std::vector<int> conjuncts;        // conjuncts_ slots with max_rel == step
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
  };

  /// Collects equality keys usable to probe relation `step` given the
  /// relations [0, step) are bound.
  void CollectEqKeys(int step, std::vector<EqKey>* keys) {
    for (const auto& c : conjuncts_) {
      const Expr* e = c.expr;
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
        keys->push_back({rc->col, other});
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
    const StepPlan& plan = step_plans_[step];
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
        auto v = EvalExpr(ctx_, tuple, *item);
        if (!v.ok()) {
          ok = false;  // unbound placeholder: surface via the scan path
          break;
        }
        probe_buf_.clear();
        probe_buf_.push_back(std::move(*v));
        table->IndexLookup(plan.in_index, probe_buf_, out);
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
    if (plan.index >= 0) {
      // Build probe key in index column order.
      probe_buf_.clear();
      for (const Expr* src : plan.probe) {
        auto v = EvalExpr(ctx_, tuple, *src);
        if (!v.ok()) return v.status();
        probe_buf_.push_back(std::move(*v));
      }
      table->IndexLookup(plan.index, probe_buf_, out);
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
  /// original conjunct order (short-circuit and error semantics preserved).
  Result<bool> StepPredicatesPass(int step, const Tuple& tuple) {
    StepPlan& plan = step_plans_[step];
    for (size_t i = 0; i < plan.conjuncts.size(); ++i) {
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
  /// if any evaluation errors: the caller falls back to the scan so error
  /// surfacing stays on the original path.
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
      auto key = EvalExpr(ctx_, tmp, *plan.semi_probe);
      if (!key.ok()) return false;
      probe_buf_.clear();
      probe_buf_.push_back(std::move(*key));
      table->IndexLookup(plan.semi_index, probe_buf_, out);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    ctx_.rows_examined += out->size();
    // The scan examines every live leading row; the inner scan above is
    // this plan's own work, not the scan's.
    ctx_.cost_rows += table->num_rows();
    return !ctx_.count_cost || CountSkippedRows(*out);
  }

  /// Adds to cost_rows what the scan plan examines below the live leading
  /// rows the pre-filter skipped (`candidates` is sorted, so a merge walk
  /// finds them). Such a row emits nothing, but the scan still walks the
  /// steps after it while its conjuncts pass. Returns false on an
  /// evaluation error, which the scan plan would have surfaced.
  bool CountSkippedRows(const std::vector<RowId>& candidates) {
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
      if (!pass.ok()) return false;
      if (*pass && !CountScanRows(1, tuple)) return false;
    }
    ctx_.rows_examined = examined;  // the walk is bookkeeping, not the plan
    return true;
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
    if (ctx_.count_cost) rs->set_cost_rows(ctx_.cost_rows);
    return ResultSetPtr(rs);
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
      Row key;                     // group_by values
      Tuple rep;                   // representative input tuple
      std::vector<AggState> aggs;  // one per aggregate node
    };
    std::unordered_map<uint64_t, Group> groups;
    std::vector<uint64_t> group_order;

    Status st = RunJoin([&](const Tuple& tuple) -> Status {
      Row key;
      uint64_t h = 0x51ab;
      for (const auto& g : sel_.group_by) {
        auto v = EvalExpr(ctx_, tuple, *g);
        if (!v.ok()) return v.status();
        h = util::HashCombine(h, v->Hash());
        key.push_back(std::move(*v));
      }
      auto [it, inserted] = groups.try_emplace(h);
      Group& grp = it->second;
      if (inserted) {
        grp.key = std::move(key);
        grp.rep = tuple;
        grp.aggs.resize(agg_nodes.size());
        group_order.push_back(h);
      }
      for (size_t i = 0; i < agg_nodes.size(); ++i) {
        const Expr& e = *agg_nodes[i];
        AggState& agg = grp.aggs[i];
        const Expr& arg = *e.children[0];
        Value v;
        if (arg.kind == ExprKind::kStar) {
          v = Value::Int(1);
        } else {
          auto ev = EvalExpr(ctx_, tuple, arg);
          if (!ev.ok()) return ev.status();
          v = std::move(*ev);
        }
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

    auto finalize = [&](const Group& grp, size_t i) -> Result<Value> {
      const Expr& e = *sel_.items[i].expr;
      std::unordered_map<const Expr*, Value> agg_values;
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        auto v = finalize_agg(grp.aggs[a], *agg_nodes[a]);
        if (!v.ok()) return v.status();
        agg_values.emplace(agg_nodes[a], std::move(*v));
      }
      if (!HasAggregate(e) && synthetic_empty_group) {
        return Value::Null();  // no rows: bare expressions have no value
      }
      ctx_.agg_values = &agg_values;
      auto out = EvalExpr(ctx_, grp.rep, e);
      ctx_.agg_values = nullptr;
      if (!out.ok()) return out.status();
      return std::move(*out);
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
      const Group& grp = groups[h];
      OutRow out;
      for (size_t i = 0; i < sel_.items.size(); ++i) {
        auto v = finalize(grp, i);
        if (!v.ok()) return v.status();
        out.values.push_back(std::move(*v));
      }
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
    if (ctx_.count_cost) rs->set_cost_rows(ctx_.cost_rows);
    return ResultSetPtr(rs);
  }

  Catalog* catalog_;
  const sql::SelectStmt& sel_;
  ExecContext ctx_;
  const bool probe_plans_;  // IN-list probes and the semijoin pre-filter
  std::vector<Conjunct> conjuncts_;
  std::vector<StepPlan> step_plans_;
  std::vector<Value> probe_buf_;       // reused index-probe key buffer
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
  for (const Expr* c : conjuncts) {
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
      keys.push_back({rc->col, other});
      break;
    }
  }

  std::vector<RowId> candidates;
  Tuple tuple(1, 0);
  bool used_index = false;
  if (!keys.empty()) {
    std::vector<int> eq_cols;
    for (const auto& k : keys) eq_cols.push_back(k.col);
    int idx = table->FindUsableIndex(eq_cols);
    if (idx >= 0) {
      std::vector<Value> probe;
      for (int pos : table->IndexColumns(idx)) {
        const Expr* src = nullptr;
        for (const auto& k : keys) {
          if (k.col == pos) {
            src = k.value_expr;
            break;
          }
        }
        auto v = EvalExpr(ctx, tuple, *src);
        if (!v.ok()) return v.status();
        probe.push_back(std::move(*v));
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
    for (const Expr* c : conjuncts) {
      auto v = EvalExpr(ctx, tuple, *c);
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

  ExecContext ctx;
  ctx.params = params;
  Tuple empty;
  uint64_t affected = 0;
  for (const auto& row_exprs : ins.rows) {
    if (row_exprs.size() != positions.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      auto v = EvalExpr(ctx, empty, *row_exprs[i]);
      if (!v.ok()) return v.status();
      row[positions[i]] = std::move(*v);
    }
    APOLLO_RETURN_NOT_OK(table->Insert(std::move(row)));
    ++affected;
  }
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
  Tuple tuple(1, 0);
  for (RowId id : *matched) {
    tuple[0] = id;
    std::vector<Value> new_values;
    for (const auto& [_, expr] : upd.assignments) {
      auto v = EvalExpr(ctx, tuple, *expr);
      if (!v.ok()) return v.status();
      new_values.push_back(std::move(*v));
    }
    table->UpdateRow(id, col_indexes, new_values);
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
  const bool count_cost = cost == CostRows::kCount;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      SelectRunner runner(catalog_, *stmt.select, params,
                          semijoin_prefilter_, count_cost);
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
