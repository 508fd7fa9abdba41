#ifndef CARAC_CORE_ENGINE_H_
#define CARAC_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/aot_planner.h"
#include "core/fixpoint_driver.h"
#include "core/jit.h"
#include "core/read_view.h"
#include "core/worker_pool.h"
#include "datalog/ast.h"
#include "ir/exec_context.h"
#include "ir/interpreter.h"
#include "ir/irop.h"
#include "optimizer/adaptive.h"
#include "storage/factlog.h"
#include "util/status.h"

namespace carac::core {

/// How a prepared program executes.
enum class EvalMode : uint8_t {
  kInterpreted,  // Pure IR interpretation — the paper's baseline.
  kJit,          // Adaptive Metaprogramming: interpret + (re)compile.
};

/// Engine configuration: evaluation mode, indexing, optional AOT planning
/// and the JIT switchboard.
struct EngineConfig {
  EvalMode mode = EvalMode::kInterpreted;
  /// Build indexes on join/filter columns (§IV "Index selection").
  bool use_indexes = true;
  /// Index organization for every declared index. A concrete kind forces
  /// that organization everywhere; nullopt (the default, "auto") keeps
  /// the paper's hash indexes for point-probed columns and lets the
  /// optimizer's access-path profile pick an ordered organization for
  /// range-only columns (optimizer/selectivity.h ChooseIndexKind).
  /// Program-level hints (Program::HintIndexKind, the DSL HintIndex, or
  /// a parsed `@index` pragma) override either, per column.
  std::optional<storage::IndexKind> index_kind;
  /// Push comparison builtins into the storage layer: lowering annotates
  /// each eligible atom with per-side range bounds (ir::AnnotateRangeBounds)
  /// and the evaluators serve them through Relation::ProbeRange when the
  /// column's index is ordered and the optimizer's coverage estimate says
  /// a range probe beats the filtered scan. Results are byte-identical on
  /// or off — the comparison builtins always remain as residual filters —
  /// so this is purely an access-path switch (and the escape hatch when
  /// the uniform-key coverage estimate misfires).
  bool range_pushdown = true;
  /// Self-tuning indexes: at every epoch close, compare each indexed
  /// column's OBSERVED probe/range mix (runtime access profiling) against
  /// its current organization and migrate it when the evidence says
  /// another kind wins (optimizer/adaptive.h). Composes with any of the
  /// static choices above — they pick the starting kind, the policy
  /// refines it. Results stay byte-identical under any re-kinding
  /// schedule (the ascending-RowId index contract).
  bool adaptive_indexes = false;
  /// Thresholds and hysteresis for the adaptive policy.
  optimizer::AdaptiveIndexConfig adaptive;
  /// Which relational engine executes subqueries (§V-D: push or pull).
  ir::EngineStyle engine_style = ir::EngineStyle::kPush;
  JitConfig jit;
  /// Carac-compile-time macro optimization (§VI-C). Applied during
  /// Prepare(), so its cost is offline.
  bool aot_reorder = false;
  AotPlan aot;
  /// Apply the §V-A alias-elimination rewrite during Prepare(). Off by
  /// default: eliminated alias relations stop being materialized, so
  /// callers must query the alias target instead.
  bool eliminate_aliases = false;
  /// Evaluation threads for the semi-naive fixpoint. 1 (the default)
  /// keeps today's exact single-threaded execution; larger values shard
  /// each rule's outer scan by RowId range across a persistent worker
  /// pool. Results are byte-identical for every value: workers stage
  /// into per-thread buffers that the main thread merges in fixed order.
  int num_threads = 1;
  /// Outer scans below this row count stay single-threaded (sharding a
  /// near-empty delta costs more in dispatch than it saves). Tests lower
  /// it to force the parallel path onto small programs.
  uint32_t parallel_min_outer_rows = 128;
  /// Durable-state directory (snapshot.bin + factlog.bin). When set,
  /// every AddFacts batch is appended to the fact log and every closed
  /// epoch commits to it, Checkpoint()/Restore() become available, and a
  /// restart recovers in O(log tail) instead of O(database). Empty
  /// (default) disables persistence entirely.
  std::string snapshot_dir;
  /// With persistence enabled, automatically Checkpoint() after every N
  /// closed epochs (0 = manual checkpoints only). Tuning note: a larger
  /// N amortizes snapshot writes over more epochs but lengthens the log
  /// tail recovery must replay.
  uint64_t checkpoint_every = 0;
};

/// What Engine::Restore() recovered, for serve-mode reporting and tests.
struct RestoreInfo {
  bool snapshot_loaded = false;
  /// DatabaseSet epoch recorded in the snapshot (0 when none existed).
  uint64_t snapshot_epoch = 0;
  /// Committed fact-log epochs re-applied through Update().
  uint64_t epochs_replayed = 0;
  /// True when an uncommitted log tail (crash debris) was discarded.
  bool log_tail_discarded = false;
};

/// The public entry point: owns the lowered IR and the evaluation
/// machinery for one Datalog program. Evaluation is re-enterable: after
/// the initial Run(), batches of new facts can be applied as update
/// epochs whose cost is proportional to the delta, not the database.
///
///   datalog::Program program;
///   datalog::Dsl dsl(&program);
///   ... declare relations, facts, rules ...
///   core::Engine engine(&program, config);
///   CARAC_CHECK_OK(engine.Prepare());
///   CARAC_CHECK_OK(engine.Run());
///   auto rows = engine.Results(path.id());
///   // Later: apply a fact batch and bring the fixpoint up to date.
///   CARAC_CHECK_OK(engine.AddFacts(edge.id(), {{7, 8}, {8, 9}}));
///   CARAC_CHECK_OK(engine.Update());
class Engine {
 public:
  Engine(datalog::Program* program, EngineConfig config);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Stratifies, lowers and (optionally) AOT-plans. Fails on invalid or
  /// unstratifiable programs. Must precede Run()/Update().
  util::Status Prepare();

  /// Full evaluation to fixpoint; results land in the program's Derived
  /// stores and the epoch watermarks advance. Re-running is sound but
  /// pays full price: a re-entered Run() resets every IDB relation to
  /// its EDB facts and re-derives from scratch, so results always match
  /// the current fact set exactly (stale conclusions of negation or
  /// aggregate rules do not survive). Use AddFacts() + Update() to
  /// absorb new fact batches at delta-proportional cost instead.
  util::Status Run();

  /// Appends a batch of facts to `predicate`'s Derived store, to be
  /// picked up by the next Update() (or Run()). Fails with
  /// InvalidArgument on an unknown predicate or a tuple whose arity does
  /// not match the relation; the batch is validated up front, so on
  /// failure nothing is inserted (and nothing reaches the fact log).
  /// Callable before or after Prepare().
  util::Status AddFacts(datalog::PredicateId predicate,
                        const std::vector<storage::Tuple>& facts);

  /// Brings the fixpoint up to date with the facts appended since the
  /// last epoch boundary. The first call (before any Run()) is a full
  /// evaluation; later calls run an incremental epoch: positive strata
  /// propagate only the delta, strata with negation or aggregates whose
  /// inputs changed are recomputed stratum-locally (see FixpointDriver).
  /// `report`, when non-null, receives what the epoch did.
  util::Status Update(EpochReport* report = nullptr);

  // ---- Durable state (requires EngineConfig::snapshot_dir) ----
  //
  // Contract: recoverable state = program source + snapshot + fact log.
  // Facts must enter either through the program before the engine runs
  // (parse-time facts, Dsl Fact()) or through AddFacts() — batches
  // inserted into the DatabaseSet behind the engine's back are invisible
  // to the log and will not survive a restart.

  /// Writes <snapshot_dir>/snapshot.bin (atomic rename) capturing the
  /// full current state, then resets the fact log — recovery from this
  /// point replays nothing. Callable at any epoch.
  util::Status Checkpoint();

  /// Recovers durable state: loads the snapshot (when one exists) and
  /// re-applies every committed fact-log epoch past it through the
  /// normal Update() path, so recovery costs O(log tail). An
  /// uncommitted log tail — crash debris — is discarded and truncated
  /// away; corruption under a checksum fails with a diagnostic Status
  /// and applies nothing further. Requires Prepare(); call it before
  /// adding new facts. A subsequent Update() continues incrementally,
  /// byte-identical to a process that never restarted.
  util::Status Restore(RestoreInfo* info = nullptr);

  /// Cumulative counters across all epochs; last_epoch() holds the most
  /// recent evaluation's share.
  const ir::ExecStats& stats() const { return ctx_->stats(); }
  const EpochReport& last_epoch() const { return last_epoch_; }
  ir::IRProgram& ir() { return irp_; }
  Jit* jit() { return jit_.get(); }

  /// Cumulative per-(relation, column) probe counters (runtime access
  /// profiling; serve `stats` prints them).
  const ir::AccessProfiler& profiler() const { return ctx_->profiler(); }

  /// The adaptive re-kinding policy, or nullptr when
  /// EngineConfig::adaptive_indexes is off. Its events() are the
  /// migration history.
  const optimizer::AdaptiveIndexPolicy* adaptive_policy() const {
    return adaptive_policy_.get();
  }

  /// Sorted Derived rows of a relation (test/report convenience).
  std::vector<storage::Tuple> Results(datalog::PredicateId predicate) const;
  size_t ResultSize(datalog::PredicateId predicate) const;

  // ---- Epoch-snapshot reads (the serving layer's read path) ----

  /// The current published ReadView: the engine's queryable state pinned
  /// to the last closed epoch. Safe to call from any thread, including
  /// while a Run()/Update()/AddFacts() is in flight on the writer
  /// thread — the returned view is immutable and stays valid for as
  /// long as the caller holds it. Before the first epoch closes the
  /// view is the post-Prepare() one: epoch 0, every relation empty.
  /// Never null after a successful Prepare().
  std::shared_ptr<const ReadView> PinReadView() const;

  /// The `stats` report over the LIVE state: per-column index kinds,
  /// cumulative probe counters and adaptive re-kind events. Single
  /// source of the format — the published ReadView freezes this same
  /// text at each epoch close.
  std::string FormatStats() const;

 private:
  bool persistence_enabled() const { return !config_.snapshot_dir.empty(); }
  std::string SnapshotPath() const;
  std::string FactLogPath() const;
  /// Opens (creating if needed) the append handle on the fact log.
  util::Status EnsureLogOpen();
  /// The durability-suspended diagnostic (see log_broken_).
  util::Status LogBroken() const;
  /// Logs one validated AddFacts batch, preceded by any symbols interned
  /// since the last record (so replay reproduces identical symbol ids).
  util::Status LogBatch(datalog::PredicateId predicate,
                        const std::vector<storage::Tuple>& facts);
  /// Seals the epoch that just closed into the log; auto-checkpoints
  /// when EngineConfig::checkpoint_every says so.
  util::Status CommitEpochToLog();
  /// Re-applies one replayed log epoch (symbols, batches, Update).
  util::Status ApplyReplayedEpoch(const storage::FactLog::ReplayEpoch& epoch);
  /// Pins every relation at its watermark and swaps the result in as the
  /// published ReadView. Writer-thread only, at quiescent points (end of
  /// Prepare/Run/Update/Restore): no cursor is live and the watermarks
  /// name exactly the closed epoch's rows.
  void PublishReadView();

  datalog::Program* program_;
  EngineConfig config_;
  ir::IRProgram irp_;
  std::unique_ptr<ir::ExecContext> ctx_;
  std::unique_ptr<Jit> jit_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<FixpointDriver> driver_;
  std::unique_ptr<optimizer::AdaptiveIndexPolicy> adaptive_policy_;
  EpochReport last_epoch_;
  bool prepared_ = false;
  bool evaluated_ = false;
  // ---- Published read snapshot (see PinReadView) ----
  /// Guards read_view_ only. The writer swaps a fresh view in at epoch
  /// close; readers copy the shared_ptr out. Held for pointer-copy
  /// duration on both sides, so it is never contended for long — and the
  /// release/acquire pair is the happens-before edge that makes the
  /// view's pinned buffers safely visible to reader threads.
  mutable std::mutex view_mutex_;
  std::shared_ptr<const ReadView> read_view_;
  /// Pinned symbol table shared across consecutive views; rebuilt only
  /// when interning grew the table (or Restore() replaced it).
  std::shared_ptr<const std::vector<std::string>> symbol_cache_;
  // ---- Persistence state (unused when snapshot_dir is empty) ----
  std::unique_ptr<storage::FactLog> factlog_;
  /// Symbols already covered by the snapshot/log; the suffix past this
  /// count is appended before the next batch record.
  size_t logged_symbols_ = 0;
  uint64_t epochs_since_checkpoint_ = 0;
  /// True while Restore() re-applies log epochs: suppresses re-logging.
  bool replaying_ = false;
  /// Batches applied since the last epoch commit. Restore() can rewind
  /// them only by reloading a snapshot; without one it refuses rather
  /// than truncate their unsealed log records out from under the
  /// in-memory facts (which would silently diverge served state from
  /// what a restart recovers).
  uint64_t uncommitted_batches_ = 0;
  /// Set when a log write fails. Durability is then SUSPENDED — further
  /// appends and commits refuse fast — because the current epoch's
  /// durable record is incomplete and committing it would let recovery
  /// silently diverge from the served state. A successful Checkpoint()
  /// heals it (the snapshot captures full memory state and resets the
  /// log); Restore() clears it too (memory is re-synced FROM the
  /// durable state). Until then, recovery replays to the last epoch
  /// whose commit reached disk — stale but consistent.
  bool log_broken_ = false;
};

}  // namespace carac::core

#endif  // CARAC_CORE_ENGINE_H_
