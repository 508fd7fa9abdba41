#include "ir/pull_evaluator.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "ir/atom_access.h"
#include "util/status.h"

namespace carac::ir {

namespace {

using storage::Relation;
using storage::RowCursor;
using storage::RowId;
using storage::Tuple;
using storage::TupleView;
using storage::Value;

/// One Volcano operator: Reset() re-opens it under the current binding
/// (outer rows are visible through the shared binding array), Next()
/// produces the operator's next match and updates the binding.
class RowSource {
 public:
  virtual ~RowSource() = default;
  virtual void Reset(std::vector<Value>& binding) = 0;
  virtual bool Next(std::vector<Value>& binding) = 0;

  /// Parallel evaluation, meaningful only for the pipeline's outer
  /// stage: restricts the source to positions [begin, end) of its row
  /// sequence (see AtomRows). The default covers the whole sequence;
  /// inner-only sources ignore it.
  virtual void RestrictOuter(size_t begin, size_t end) {
    (void)begin;
    (void)end;
  }
};

/// Scan / index-probe leaf for one positive relational atom.
class ScanSource : public RowSource {
 public:
  explicit ScanSource(const AtomAccess* access) : access_(access) {}

  void RestrictOuter(size_t begin, size_t end) override {
    outer_begin_ = begin;
    outer_end_ = end;
  }

  void Reset(std::vector<Value>& binding) override {
    // The position window is clamped here, once per re-open, so Next()'s
    // per-row bound check costs exactly what it did before parallel
    // evaluation existed.
    rows_ = OpenRows(*access_, binding.data(), access_->stats, &range_rows_);
    limit_ = std::min(outer_end_, rows_.size);
    pos_ = std::min(outer_begin_, limit_);
  }

  bool Next(std::vector<Value>& binding) override {
    while (pos_ < limit_) {
      const TupleView row = access_->rel->View(rows_[pos_++]);
      if (ApplyColActions(access_->actions, row, binding.data())) return true;
    }
    return false;
  }

 private:
  const AtomAccess* access_;
  std::vector<RowId> range_rows_;  // Owns the rows rows_ wraps on the
                                   // range path.
  AtomRows rows_;
  size_t pos_ = 0;
  size_t limit_ = 0;
  size_t outer_begin_ = 0;
  size_t outer_end_ = static_cast<size_t>(-1);
};

/// Builtin atom: a zero-or-one-row source (filter, or arithmetic binder).
class BuiltinSource : public RowSource {
 public:
  explicit BuiltinSource(const AtomAccess* access) : access_(access) {}

  void Reset(std::vector<Value>& /*binding*/) override { produced_ = false; }

  bool Next(std::vector<Value>& binding) override {
    if (produced_) return false;
    produced_ = true;
    return ApplyBuiltin(*access_, binding.data());
  }

 private:
  const AtomAccess* access_;
  bool produced_ = false;
};

/// Negated atom: antijoin membership test (zero-or-one empty row).
class NegationSource : public RowSource {
 public:
  explicit NegationSource(const AtomAccess* access) : access_(access) {}

  void Reset(std::vector<Value>& /*binding*/) override { produced_ = false; }

  bool Next(std::vector<Value>& binding) override {
    if (produced_) return false;
    produced_ = true;
    return NegationHolds(*access_, binding.data(), &scratch_);
  }

 private:
  const AtomAccess* access_;
  Tuple scratch_;
  bool produced_ = false;
};

/// Fused outer-scan + batched inner-probe over a BatchJoinable plan's
/// first two atoms. Each ProbeWindow resolves a window of matching outer
/// rows' probe keys in one BatchProbe; inner matches are yielded one per
/// Next() — the emission sequence is exactly what the two unfused stages
/// would produce, so results stay byte-identical.
class BatchedJoinSource final : public RowSource {
 public:
  BatchedJoinSource(const AtomAccess* outer, const AtomAccess* inner)
      : outer_(outer), inner_(inner) {}

  void RestrictOuter(size_t begin, size_t end) override {
    outer_begin_ = begin;
    outer_end_ = end;
  }

  void Reset(std::vector<Value>& binding) override {
    rows_ = OpenRows(*outer_, binding.data(), outer_->stats, &range_rows_);
    limit_ = std::min(outer_end_, rows_.size);
    pos_ = std::min(outer_begin_, limit_);
    kept_ = 0;
    kept_idx_ = 0;
    cursor_ = RowCursor();
    cursor_pos_ = 0;
  }

  bool Next(std::vector<Value>& binding) override {
    for (;;) {
      // Drain the current outer row's pre-resolved inner cursor.
      while (cursor_pos_ < cursor_.size()) {
        const RowId inner_row = cursor_[cursor_pos_++];
        if (ApplyColActions(inner_->actions, inner_->rel->View(inner_row),
                            binding.data())) {
          return true;
        }
      }
      // Advance to the next kept outer row of the window.
      if (kept_idx_ < kept_) {
        window_.RestoreOuter(*outer_, kept_idx_, binding.data());
        cursor_ = window_.cursor(kept_idx_);
        cursor_pos_ = 0;
        ++kept_idx_;
        continue;
      }
      if (pos_ >= limit_) return false;
      kept_ = window_.Fill(*outer_, rows_, &pos_, limit_, *inner_,
                           binding.data());
      kept_idx_ = 0;
    }
  }

 private:
  const AtomAccess* outer_;
  const AtomAccess* inner_;
  size_t outer_begin_ = 0;
  size_t outer_end_ = static_cast<size_t>(-1);
  // Iteration state.
  std::vector<RowId> range_rows_;
  AtomRows rows_;
  size_t pos_ = 0;
  size_t limit_ = 0;
  ProbeWindow window_;
  size_t kept_ = 0;
  size_t kept_idx_ = 0;
  RowCursor cursor_;
  size_t cursor_pos_ = 0;
};

/// A subquery's compiled body plus the iterator stages that run it; the
/// stages point into `plan`.
struct Pipeline {
  std::vector<AtomAccess> plan;
  std::vector<std::unique_ptr<RowSource>> stages;
};

/// Builds the iterator pipeline. A BatchJoinable plan's leading two atoms
/// become one BatchedJoinSource. Probe counters go to `profiler` — the
/// context's own on the single-threaded path, a worker-private one when
/// the pipeline runs inside a shard.
Pipeline BuildPipeline(ExecContext& ctx, const IROp& op,
                       AccessProfiler* profiler) {
  Pipeline p;
  p.plan = CompileAtoms(ctx.db(), op, profiler);
  p.stages.reserve(p.plan.size());
  size_t start = 0;
  if (BatchJoinable(p.plan)) {
    p.stages.push_back(
        std::make_unique<BatchedJoinSource>(&p.plan[0], &p.plan[1]));
    start = 2;
  }
  for (size_t i = start; i < p.plan.size(); ++i) {
    const AtomAccess* access = &p.plan[i];
    if (access->atom->is_builtin()) {
      p.stages.push_back(std::make_unique<BuiltinSource>(access));
    } else if (access->atom->negated) {
      p.stages.push_back(std::make_unique<NegationSource>(access));
    } else {
      p.stages.push_back(std::make_unique<ScanSource>(access));
    }
  }
  return p;
}

/// The Volcano get-next loop over the pipeline's cursor stack, calling
/// `emit` for every full match. Requires a non-empty pipeline.
template <typename EmitFn>
void RunVolcano(std::vector<std::unique_ptr<RowSource>>& pipeline,
                std::vector<Value>& binding, EmitFn&& emit) {
  const int n = static_cast<int>(pipeline.size());
  int depth = 0;
  pipeline[0]->Reset(binding);
  while (depth >= 0) {
    if (!pipeline[depth]->Next(binding)) {
      --depth;
      continue;
    }
    if (depth == n - 1) {
      emit();
    } else {
      ++depth;
      pipeline[depth]->Reset(binding);
    }
  }
}

/// The pull engine's parallel path: shards the outer stage's row sequence
/// by contiguous position ranges, each worker running a private pipeline
/// that stages into its own buffer; the in-order merge then replays the
/// single-threaded insertion sequence exactly. Returns false when the
/// subquery must (or should) run single-threaded.
bool TryRunPullSharded(ExecContext& ctx, const IROp& op,
                       const std::vector<AtomAccess>& plan) {
  if (ctx.worker_pool() == nullptr) return false;
  if (plan.empty() || !plan[0].atom->is_join_atom()) return false;
  // Sized from the row sequence stage 0 opens, recording no stats (the
  // workers count their own probes). No variable is bound before atom 0,
  // so the all-zero binding is never consulted for a probe key.
  const std::vector<Value> binding_zero(op.num_locals, 0);
  std::vector<RowId> range_rows;
  const size_t outer_rows =
      OpenRows(plan[0], binding_zero.data(), nullptr, &range_rows).size;

  const Relation& derived = ctx.db().Get(op.target, storage::DbKind::kDerived);
  const Relation& delta_new =
      ctx.db().Get(op.target, storage::DbKind::kDeltaNew);
  return ShardSubqueryAcrossPool(
      ctx, op.target, outer_rows, op.head_terms.size(),
      [&](int shard, size_t begin, size_t end,
          storage::StagingBuffer* staging, uint64_t* considered) {
        Pipeline worker = BuildPipeline(ctx, op, ctx.ShardProfiler(shard));
        worker.stages[0]->RestrictOuter(begin, end);
        std::vector<Value> binding(op.num_locals, 0);
        uint64_t emitted = 0;
        Tuple head;
        RunVolcano(worker.stages, binding, [&] {
          ++emitted;
          head.clear();
          for (const LocalTerm& t : op.head_terms) {
            head.push_back(t.is_var ? binding[t.var] : t.constant);
          }
          // Derived and DeltaNew are frozen until the merge, so these
          // are safe concurrent reads that keep the staging sets small.
          if (derived.Contains(head) || delta_new.Contains(head)) return;
          staging->Insert(head);
        });
        *considered = emitted;
      });
}

}  // namespace

void RunSubqueryPull(ExecContext& ctx, const IROp& op) {
  CARAC_CHECK(op.kind == OpKind::kSpj);
  ctx.stats().spj_executions++;

  Pipeline pipeline = BuildPipeline(ctx, op, &ctx.profiler());
  if (TryRunPullSharded(ctx, op, pipeline.plan)) return;

  storage::DatabaseSet& db = ctx.db();
  Relation& derived = db.Get(op.target, storage::DbKind::kDerived);
  Relation& delta_new = db.Get(op.target, storage::DbKind::kDeltaNew);
  std::vector<Value> binding(op.num_locals, 0);
  Tuple head;

  auto emit = [&] {
    ctx.stats().tuples_considered++;
    head.clear();
    for (const LocalTerm& t : op.head_terms) {
      head.push_back(t.is_var ? binding[t.var] : t.constant);
    }
    if (derived.Contains(head)) return;
    if (delta_new.Insert(head)) ctx.stats().tuples_inserted++;
  };

  if (pipeline.stages.empty()) {
    emit();
    return;
  }
  RunVolcano(pipeline.stages, binding, emit);
}

}  // namespace carac::ir
