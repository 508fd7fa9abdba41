#include "ir/interpreter.h"

#include "ir/pull_evaluator.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ir/atom_access.h"
#include "util/status.h"

namespace carac::ir {

namespace {

using storage::RowId;
using storage::Tuple;
using storage::Value;

/// The join executor. Stack-allocated per subquery evaluation.
class SubqueryRun {
 public:
  SubqueryRun(ExecContext& ctx, const IROp& op)
      : ctx_(ctx), op_(op), profiler_(&ctx.profiler()) {}

  void Run() {
    ctx_.stats().spj_executions++;
    binding_.assign(op_.num_locals, 0);
    BuildPlan();
    if (op_.kind == OpKind::kAggregate) {
      Join<false>(0);
      FlushAggregates();
      return;
    }
    if (RunSharded()) return;
    if (BatchJoinable(plan_)) {
      JoinBatchedWindow<false>(0, static_cast<size_t>(-1));
      return;
    }
    Join<false>(0);
  }

  /// Pool-worker entry: evaluates outer positions [begin, end), staging
  /// emissions into `out` (behind a read-only Derived/DeltaNew
  /// pre-filter) instead of inserting. Safe to run concurrently with the
  /// other shards — everything shared is read-only until the main thread
  /// merges the buffers.
  void RunShard(size_t begin, size_t end, storage::StagingBuffer* out,
                uint64_t* considered) {
    binding_.assign(op_.num_locals, 0);
    BuildPlan();
    staging_ = out;
    if (BatchJoinable(plan_)) {
      JoinBatchedWindow<true>(begin, end);
    } else {
      JoinOuterWindow(begin, end);
    }
    *considered = staged_considered_;
  }

 private:
  /// Shards the outer atom's row sequence by contiguous position ranges
  /// across the worker pool, then merges the staged results in shard
  /// order — which replays exactly the single-threaded emission sequence,
  /// so DeltaNew ends up byte-identical (contents, insertion order and
  /// RowIds) for every thread count. Returns false when the subquery
  /// must (or should) run single-threaded: no pool, a leading builtin or
  /// negation, or an outer scan too small to amortize dispatch.
  bool RunSharded() {
    if (ctx_.worker_pool() == nullptr) return false;
    if (plan_.empty() || !plan_[0].atom->is_join_atom()) return false;
    // Sized from the same row sequence the workers open (no variable is
    // bound before atom 0, so every shard resolves the identical one),
    // recording no stats: the workers count their own probes.
    const size_t outer_rows =
        OpenRows(plan_[0], binding_.data(), nullptr, &range_scratch_[0]).size;
    return ShardSubqueryAcrossPool(
        ctx_, op_.target, outer_rows, op_.head_terms.size(),
        [&](int shard, size_t begin, size_t end,
            storage::StagingBuffer* staging, uint64_t* considered) {
          SubqueryRun worker(ctx_, op_);
          // Worker-private counters, merged by MergeStagedDelta.
          worker.profiler_ = ctx_.ShardProfiler(shard);
          worker.RunShard(begin, end, staging, considered);
        });
  }

  void BuildPlan() {
    plan_ = CompileAtoms(ctx_.db(), op_, profiler_);
    // One range-row buffer per plan depth: Join() recurses, so an inner
    // atom's probe must not clobber an outer atom's live row list.
    range_scratch_.resize(plan_.size());
  }

  Value Resolve(const LocalTerm& t) const {
    return t.is_var ? binding_[t.var] : t.constant;
  }

  /// kStaged selects the emission sink at compile time (false: insert
  /// into DeltaNew; true: stage into the worker's buffer), so the
  /// single-threaded instantiation's machine code is exactly the
  /// pre-parallel interpreter.
  template <bool kStaged>
  void Join(size_t i) {
    if (i == plan_.size()) {
      Emit<kStaged>();
      return;
    }
    const AtomAccess& p = plan_[i];
    if (p.atom->is_builtin()) {
      if (ApplyBuiltin(p, binding_.data())) Join<kStaged>(i + 1);
      return;
    }
    if (p.atom->negated) {
      if (NegationHolds(p, binding_.data(), &scratch_)) Join<kStaged>(i + 1);
      return;
    }
    const AtomRows rows =
        OpenRows(p, binding_.data(), p.stats, &range_scratch_[i]);
    rows.ForEach(0, rows.size, [&](RowId row) {
      if (ApplyColActions(p.actions, p.rel->View(row), binding_.data())) {
        Join<kStaged>(i + 1);
      }
    });
  }

  /// The shard workers' outer loop: drives plan_[0] (a positive
  /// relational atom, guaranteed by RunSharded) over positions
  /// [begin, end) of its row sequence, then hands each match to
  /// Join(1). Kept out of Join() itself so the single-threaded hot
  /// loop's codegen stays exactly as it was before parallel evaluation
  /// existed.
  void JoinOuterWindow(size_t begin, size_t end) {
    const AtomAccess& p = plan_[0];
    const AtomRows rows =
        OpenRows(p, binding_.data(), p.stats, &range_scratch_[0]);
    rows.ForEach(begin, end, [&](RowId row) {
      if (ApplyColActions(p.actions, p.rel->View(row), binding_.data())) {
        Join<true>(1);
      }
    });
  }

  /// Batch-at-a-time outer loop over positions [begin, end) of atom 0's
  /// row sequence (a BatchJoinable plan): each ProbeWindow applies atom-0
  /// actions to a window of outer rows and resolves the survivors' inner
  /// probe keys in one BatchProbe; then, per surviving row, atom-0 binds
  /// are restored and atom 1 joins from the pre-resolved cursor,
  /// recursing into Join<>(2). The emission order is exactly the classic
  /// nested loop's, so DeltaNew stays byte-identical single-threaded or
  /// sharded. Deliberately a separate entry point: Join<>(0)'s codegen is
  /// fragile under GCC 12 and stays untouched.
  template <bool kStaged>
  void JoinBatchedWindow(size_t begin, size_t end) {
    const AtomAccess& outer = plan_[0];
    const AtomAccess& inner = plan_[1];
    const AtomRows rows =
        OpenRows(outer, binding_.data(), outer.stats, &range_scratch_[0]);
    const size_t limit = std::min(end, rows.size);
    for (size_t pos = std::min(begin, limit); pos < limit;) {
      const size_t kept =
          window_.Fill(outer, rows, &pos, limit, inner, binding_.data());
      for (size_t k = 0; k < kept; ++k) {
        window_.RestoreOuter(outer, k, binding_.data());
        window_.cursor(k).ForEach([&](RowId inner_row) {
          if (ApplyColActions(inner.actions, inner.rel->View(inner_row),
                              binding_.data())) {
            Join<kStaged>(2);
          }
        });
      }
    }
  }

  template <bool kStaged>
  void Emit() {
    if constexpr (kStaged) {
      // Shard mode (plain SPJs only — aggregates never shard): stats and
      // DeltaNew belong to the main thread, so count locally and stage.
      // Derived and DeltaNew are frozen while shards run (the merge
      // happens afterwards), making the pre-filter a safe concurrent
      // read that keeps the staging sets small.
      ++staged_considered_;
      scratch_.clear();
      for (const LocalTerm& t : op_.head_terms) {
        scratch_.push_back(Resolve(t));
      }
      storage::DatabaseSet& db = ctx_.db();
      if (db.Get(op_.target, storage::DbKind::kDerived).Contains(scratch_)) {
        return;
      }
      if (db.Get(op_.target, storage::DbKind::kDeltaNew).Contains(scratch_)) {
        return;
      }
      staging_->Insert(scratch_);
      return;
    }
    ctx_.stats().tuples_considered++;
    if (op_.kind == OpKind::kAggregate) {
      scratch_.clear();
      for (size_t i = 0; i + 1 < op_.head_terms.size(); ++i) {
        scratch_.push_back(Resolve(op_.head_terms[i]));
      }
      // Set semantics: aggregate over *distinct* witnesses so results do
      // not depend on the join order or on how many derivations produce
      // the same witness. count uses the full variable binding as witness
      // (number of distinct body matches); sum/min/max use the operand.
      Tuple witness = op_.agg == datalog::AggFunc::kCount
                          ? binding_
                          : Tuple{binding_[op_.agg_operand]};
      witnesses_.emplace(scratch_, std::move(witness));
      return;
    }
    scratch_.clear();
    for (const LocalTerm& t : op_.head_terms) scratch_.push_back(Resolve(t));
    InsertResult(scratch_);
  }

  void InsertResult(const Tuple& tuple) {
    storage::DatabaseSet& db = ctx_.db();
    if (db.Get(op_.target, storage::DbKind::kDerived).Contains(tuple)) return;
    if (db.Get(op_.target, storage::DbKind::kDeltaNew).Insert(tuple)) {
      ctx_.stats().tuples_inserted++;
    }
  }

  void FlushAggregates() {
    std::map<Tuple, Value> groups;
    for (const auto& [key, witness] : witnesses_) {
      Value contribution =
          op_.agg == datalog::AggFunc::kCount ? 1 : witness[0];
      auto [it, inserted] = groups.emplace(key, contribution);
      if (inserted) continue;
      switch (op_.agg) {
        case datalog::AggFunc::kCount:
        case datalog::AggFunc::kSum:
          it->second += contribution;
          break;
        case datalog::AggFunc::kMin:
          if (contribution < it->second) it->second = contribution;
          break;
        case datalog::AggFunc::kMax:
          if (contribution > it->second) it->second = contribution;
          break;
        case datalog::AggFunc::kNone:
          break;
      }
    }
    for (const auto& [key, value] : groups) {
      Tuple tuple = key;
      tuple.push_back(value);
      InsertResult(tuple);
    }
  }

  ExecContext& ctx_;
  const IROp& op_;
  // Destination for probe counters: the context's profiler on the
  // single-threaded path, the worker's shard profiler when sharded.
  AccessProfiler* profiler_;
  std::vector<AtomAccess> plan_;
  std::vector<Value> binding_;
  Tuple scratch_;
  // Aggregation state: distinct (group key, witness) pairs.
  std::set<std::pair<Tuple, Tuple>> witnesses_;
  // Shard-execution state (parallel evaluation): the staging destination
  // and a local emission count (pool workers must not touch the shared
  // stats). Null/unused on the single-threaded path.
  storage::StagingBuffer* staging_ = nullptr;
  uint64_t staged_considered_ = 0;
  // Batched-probe window scratch (JoinBatchedWindow), reused per window.
  ProbeWindow window_;
  // Range-probe row lists, one per plan depth (Join recurses; see
  // BuildPlan).
  std::vector<std::vector<RowId>> range_scratch_;
};

}  // namespace

void RunSubquery(ExecContext& ctx, const IROp& op) {
  CARAC_CHECK(op.kind == OpKind::kSpj || op.kind == OpKind::kAggregate);
  // Aggregates always run through the push engine (they accumulate
  // witnesses); plain SPJs dispatch on the configured relational engine.
  if (op.kind == OpKind::kSpj &&
      ctx.engine_style() == EngineStyle::kPull) {
    RunSubqueryPull(ctx, op);
    return;
  }
  SubqueryRun run(ctx, op);
  run.Run();
}

void Interpreter::Execute(IROp& op) {
  if (jit_ != nullptr && jit_->MaybeRunCompiled(op, *ctx_, *this)) return;
  ExecuteNode(op);
}

void Interpreter::ExecuteNode(IROp& op) {
  switch (op.kind) {
    case OpKind::kProgram:
    case OpKind::kSequence:
    case OpKind::kUnionAll:
    case OpKind::kUnion:
      for (auto& child : op.children) Execute(*child);
      return;
    case OpKind::kDoWhile:
      do {
        ctx_->stats().iterations++;
        Execute(*op.children[0]);
      } while (ctx_->db().AnyDeltaKnownNonEmpty(op.relations));
      return;
    case OpKind::kSwapClear:
      ctx_->db().SwapClearMerge(op.relations);
      return;
    case OpKind::kSpj:
    case OpKind::kAggregate:
      ExecuteSubquery(op);
      return;
  }
}

void Interpreter::ExecuteSubquery(IROp& op) {
  if (jit_ != nullptr) jit_->BeforeSubquery(op, *ctx_);
  RunSubquery(*ctx_, op);
}

}  // namespace carac::ir
