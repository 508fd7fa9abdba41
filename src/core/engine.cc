#include "core/engine.h"

#include <filesystem>
#include <map>
#include <string_view>
#include <system_error>

#include "datalog/rewrite.h"
#include "ir/lowering.h"
#include "optimizer/selectivity.h"
#include "optimizer/statistics.h"
#include "storage/symbol_table.h"

namespace carac::core {

Engine::Engine(datalog::Program* program, EngineConfig config)
    : program_(program), config_(std::move(config)) {
  ctx_ = std::make_unique<ir::ExecContext>(&program->db());
  ctx_->set_engine_style(config_.engine_style);
  // Symbols present at construction come from the program source (parse
  // or DSL); recovery re-parses that source, so only symbols interned
  // AFTER this point need to travel through the fact log.
  logged_symbols_ = program->db().symbols().size();
}

util::Status Engine::Prepare() {
  storage::DatabaseSet& db = program_->db();
  db.SetIndexingEnabled(config_.use_indexes);
  // Index-kind precedence, weakest first: the statistics-driven auto
  // policy, a concrete configured kind, then per-column program hints.
  // All of it lands before lowering declares the indexes, so every index
  // is built once with its final organization.
  if (config_.index_kind.has_value()) {
    db.SetDefaultIndexKind(*config_.index_kind);
  } else {
    const optimizer::AccessPathProfile profile =
        optimizer::ProfileAccessPaths(*program_);
    for (const auto& [key, access] : profile.columns) {
      const auto& [pred, column] = key;
      const storage::IndexKind kind = optimizer::ChooseIndexKind(
          access, db.Get(pred, storage::DbKind::kDerived).size(),
          program_->IsIdb(pred));
      if (kind != storage::IndexKind::kHash) {
        db.SetIndexKindOverride(pred, column, kind);
      }
    }
  }
  for (const datalog::IndexHint& hint : program_->index_hints()) {
    db.SetIndexKindOverride(hint.predicate, hint.column, hint.kind);
  }
  if (config_.eliminate_aliases) {
    datalog::EliminateAliases(program_);
  }
  CARAC_RETURN_IF_ERROR(ir::LowerProgram(program_, /*declare_indexes=*/true,
                                         &irp_, config_.range_pushdown));
  if (config_.aot_reorder) {
    ApplyAotPlan(config_.aot, program_->db(), &irp_);
  }
  if (config_.mode == EvalMode::kJit) {
    jit_ = std::make_unique<Jit>(config_.jit);
  }
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<WorkerPool>(config_.num_threads);
    ctx_->set_worker_pool(pool_.get());
    ctx_->set_parallel_min_rows(config_.parallel_min_outer_rows);
  }
  driver_ = std::make_unique<FixpointDriver>(&irp_, ctx_.get(), jit_.get());
  if (config_.adaptive_indexes && config_.use_indexes) {
    adaptive_policy_ =
        std::make_unique<optimizer::AdaptiveIndexPolicy>(config_.adaptive);
  }
  prepared_ = true;
  // Baseline view: epoch 0, every relation pinned at watermark 0 (no
  // epoch has closed, so snapshot readers correctly see nothing yet).
  PublishReadView();
  return util::Status::Ok();
}

util::Status Engine::Run() {
  if (!prepared_) {
    return util::Status::FailedPrecondition("call Prepare() before Run()");
  }
  // Note on async JIT errors surfaced here and in Update(): pending
  // compilations are simply abandoned, as in the paper — "asynchronous
  // compilations may never be used if the interpreted subtrees finish
  // before compilation is ready".
  util::Status status = driver_->RunFull(&last_epoch_);
  evaluated_ = true;
  // Epoch close is a quiescent point (no cursors live): let the adaptive
  // policy digest this epoch's observed access mix and migrate index
  // organizations before anything probes again.
  if (adaptive_policy_ != nullptr && status.ok()) {
    adaptive_policy_->ObserveEpoch(&program_->db(), ctx_->profiler());
  }
  if (status.ok()) PublishReadView();
  // The epoch closed (AdvanceEpoch ran) even when an async JIT error is
  // being surfaced — evaluation itself kept interpreting — so the log
  // commit must not be skipped or the log would fall out of step with
  // the epoch counter. When both fail, the evaluation error is the
  // root cause and takes precedence.
  if (persistence_enabled() && !replaying_) {
    util::Status commit_status = CommitEpochToLog();
    if (status.ok()) status = commit_status;
  }
  return status;
}

util::Status Engine::AddFacts(datalog::PredicateId predicate,
                              const std::vector<storage::Tuple>& facts) {
  storage::DatabaseSet& db = program_->db();
  if (predicate >= db.NumRelations()) {
    return util::Status::InvalidArgument(
        "AddFacts: unknown predicate id " + std::to_string(predicate) +
        " (program declares " + std::to_string(db.NumRelations()) +
        " relations)");
  }
  const size_t arity = db.RelationArity(predicate);
  for (const storage::Tuple& fact : facts) {
    if (fact.size() != arity) {
      return util::Status::InvalidArgument(
          "AddFacts: tuple of arity " + std::to_string(fact.size()) +
          " for relation " + db.RelationName(predicate) + "/" +
          std::to_string(arity));
    }
  }
  // Log BEFORE inserting: if the append fails (unwritable directory,
  // disk full), nothing was applied and memory stays agreed with the
  // log — the documented all-or-nothing contract. The logged batch is
  // unsealed until the next epoch commits, so a crash in between
  // replays neither side.
  if (persistence_enabled() && !replaying_ && !facts.empty()) {
    CARAC_RETURN_IF_ERROR(LogBatch(predicate, facts));
  }
  // Pre-size arena and dedup table for the whole batch (serve-mode
  // bulk loads arrive here; without this they would re-pay growth and
  // rehash churn tuple by tuple).
  db.Reserve(predicate,
             db.Get(predicate, storage::DbKind::kDerived).size() +
                 facts.size());
  for (const storage::Tuple& fact : facts) {
    db.InsertFact(predicate, fact);
  }
  if (!facts.empty()) ++uncommitted_batches_;
  return util::Status::Ok();
}

util::Status Engine::Update(EpochReport* report) {
  if (!prepared_) {
    return util::Status::FailedPrecondition("call Prepare() before Update()");
  }
  // The first evaluation has no prior fixpoint to extend: run full.
  util::Status status = evaluated_ ? driver_->RunUpdateEpoch(&last_epoch_)
                                   : driver_->RunFull(&last_epoch_);
  evaluated_ = true;
  if (adaptive_policy_ != nullptr && status.ok()) {
    adaptive_policy_->ObserveEpoch(&program_->db(), ctx_->profiler());
  }
  if (status.ok()) PublishReadView();
  if (report != nullptr) *report = last_epoch_;
  if (persistence_enabled() && !replaying_) {
    util::Status commit_status = CommitEpochToLog();
    if (status.ok()) status = commit_status;
  }
  return status;
}

// ---- Durable state ----

std::string Engine::SnapshotPath() const {
  return config_.snapshot_dir + "/snapshot.bin";
}

std::string Engine::FactLogPath() const {
  return config_.snapshot_dir + "/factlog.bin";
}

util::Status Engine::EnsureLogOpen() {
  if (factlog_ != nullptr) return util::Status::Ok();
  std::error_code ec;
  std::filesystem::create_directories(config_.snapshot_dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create snapshot dir " +
                                  config_.snapshot_dir + ": " + ec.message());
  }
  uint64_t last_epoch = 0;
  CARAC_RETURN_IF_ERROR(
      storage::FactLog::OpenForAppend(FactLogPath(), &factlog_, &last_epoch));
  if (program_->db().epoch() < last_epoch) {
    // An engine behind the log (it skipped Restore) would re-use epoch
    // numbers the log already sealed; recovery skips duplicates, so the
    // acknowledged batches of this session would silently vanish.
    factlog_.reset();
    return util::Status::FailedPrecondition(
        "fact log " + FactLogPath() + " already holds epochs up to " +
        std::to_string(last_epoch) + " but this engine is at epoch " +
        std::to_string(program_->db().epoch()) +
        "; Restore() first (serve: `open`) so existing durable state is "
        "not silently dropped");
  }
  return util::Status::Ok();
}

util::Status Engine::LogBroken() const {
  return util::Status::FailedPrecondition(
      "fact log write previously failed: durability is suspended (the "
      "current epoch's durable record is incomplete). Checkpoint() "
      "(serve: `save`) captures full in-memory state and re-establishes "
      "a clean log.");
}

util::Status Engine::LogBatch(datalog::PredicateId predicate,
                              const std::vector<storage::Tuple>& facts) {
  if (log_broken_) return LogBroken();
  CARAC_RETURN_IF_ERROR(EnsureLogOpen());
  util::Status status;
  const storage::SymbolTable& symbols = program_->db().symbols();
  if (symbols.size() > logged_symbols_) {
    std::vector<std::string_view> fresh;
    fresh.reserve(symbols.size() - logged_symbols_);
    for (size_t i = logged_symbols_; i < symbols.size(); ++i) {
      fresh.push_back(symbols.Lookup(storage::kSymbolBase +
                                     static_cast<int64_t>(i)));
    }
    status = factlog_->AppendSymbols(logged_symbols_, fresh);
    if (status.ok()) logged_symbols_ = symbols.size();
  }
  if (status.ok()) {
    status = factlog_->AppendBatch(
        predicate, program_->db().RelationArity(predicate), facts);
  }
  if (!status.ok()) {
    // A failed write may have left partial record bytes behind — and
    // GOOD uncommitted records before them whose facts are already in
    // memory. Neither committing over the damage nor truncating it
    // away can keep the log agreed with memory, so durability is
    // suspended: the handle closes (any debris becomes an unsealed
    // tail that the next open truncates) and every later append/commit
    // refuses until a Checkpoint() re-baselines from memory. Recovery
    // meanwhile replays to the last committed epoch — stale, never
    // divergent.
    log_broken_ = true;
    factlog_.reset();
  }
  return status;
}

util::Status Engine::CommitEpochToLog() {
  if (log_broken_) return LogBroken();
  CARAC_RETURN_IF_ERROR(EnsureLogOpen());
  util::Status status = factlog_->Commit(program_->db().epoch());
  if (!status.ok()) {
    // Same discipline as LogBatch: the epoch that just closed is not
    // fully durable, so stop sealing anything further until a
    // checkpoint re-baselines.
    log_broken_ = true;
    factlog_.reset();
    return status;
  }
  uncommitted_batches_ = 0;
  ++epochs_since_checkpoint_;
  if (config_.checkpoint_every > 0 &&
      epochs_since_checkpoint_ >= config_.checkpoint_every) {
    return Checkpoint();
  }
  return util::Status::Ok();
}

util::Status Engine::Checkpoint() {
  if (!persistence_enabled()) {
    return util::Status::FailedPrecondition(
        "Checkpoint() requires EngineConfig::snapshot_dir");
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.snapshot_dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create snapshot dir " +
                                  config_.snapshot_dir + ": " + ec.message());
  }
  CARAC_RETURN_IF_ERROR(program_->db().SaveSnapshot(SnapshotPath()));
  // The snapshot covers everything the log held: reset it. A crash
  // between the snapshot rename and this truncation is benign — replay
  // skips log epochs at or below the snapshot's epoch counter.
  factlog_.reset();
  std::filesystem::remove(FactLogPath(), ec);
  if (ec) {
    return util::Status::Internal("cannot reset fact log " + FactLogPath() +
                                  ": " + ec.message());
  }
  logged_symbols_ = program_->db().symbols().size();
  epochs_since_checkpoint_ = 0;
  // The snapshot captured the full in-memory state and the log is
  // fresh: durable and served state agree again.
  log_broken_ = false;
  uncommitted_batches_ = 0;
  return util::Status::Ok();
}

util::Status Engine::ApplyReplayedEpoch(
    const storage::FactLog::ReplayEpoch& epoch) {
  storage::SymbolTable& symbols = program_->db().symbols();
  for (const auto& [index, text] : epoch.symbols) {
    const int64_t expected =
        storage::kSymbolBase + static_cast<int64_t>(index);
    if (index < symbols.size()) {
      // Already present (snapshot, program source, or an earlier log
      // epoch): the id assignment must agree.
      if (symbols.Lookup(expected) != text) {
        return util::Status::Internal(
            "fact log replay: symbol id " + std::to_string(index) +
            " is \"" + symbols.Lookup(expected) +
            "\" in this database but \"" + text +
            "\" in the log (log from a different history?)");
      }
    } else if (index == symbols.size()) {
      if (symbols.Intern(text) != expected) {
        return util::Status::Internal(
            "fact log replay: symbol \"" + text +
            "\" did not intern to the logged id");
      }
    } else {
      return util::Status::Internal(
          "fact log replay: symbol record skips ids (log has index " +
          std::to_string(index) + ", database holds " +
          std::to_string(symbols.size()) + " symbols)");
    }
  }
  for (const storage::FactLog::ReplayBatch& batch : epoch.batches) {
    util::Status status = AddFacts(batch.relation, batch.facts);
    if (!status.ok()) {
      return util::Status::Internal(
          "fact log replay: batch for relation id " +
          std::to_string(batch.relation) + " rejected: " + status.message());
    }
  }
  CARAC_RETURN_IF_ERROR(Update());
  if (program_->db().epoch() != epoch.epoch) {
    return util::Status::Internal(
        "fact log replay: epoch counter " +
        std::to_string(program_->db().epoch()) +
        " after replaying the commit for epoch " +
        std::to_string(epoch.epoch) + " (log from a different history?)");
  }
  return util::Status::Ok();
}

util::Status Engine::Restore(RestoreInfo* info) {
  if (info != nullptr) *info = RestoreInfo{};
  if (!persistence_enabled()) {
    return util::Status::FailedPrecondition(
        "Restore() requires EngineConfig::snapshot_dir");
  }
  if (!prepared_) {
    return util::Status::FailedPrecondition(
        "call Prepare() before Restore()");
  }
  storage::DatabaseSet& db = program_->db();

  std::error_code ec;
  const bool have_snapshot = std::filesystem::exists(SnapshotPath(), ec);
  if (!have_snapshot && uncommitted_batches_ > 0) {
    // Without a snapshot there is nothing to rewind the in-memory state
    // to: truncating the unsealed records of batches this engine still
    // holds would make later commits durably claim epochs that lack
    // them — silent divergence. Refuse BEFORE touching the append
    // handle, so the engine (and the records) continue exactly as if
    // Restore had not been called.
    return util::Status::FailedPrecondition(
        "Restore(): this engine holds " +
        std::to_string(uncommitted_batches_) +
        " uncommitted batch(es) and no snapshot exists to rewind to; "
        "Checkpoint() first, or restore from a fresh engine");
  }

  // Drop the live append handle. Closing flushes any buffered records
  // appended since the last commit onto disk as an UNSEALED tail, which
  // the replay below discards and truncates — matching the in-memory
  // state, since the snapshot reload drops those uncommitted facts too
  // (the guard above covers the no-snapshot case). Keeping the handle
  // would let a later Commit seal buffered batches into an epoch whose
  // facts this engine no longer holds.
  factlog_.reset();
  if (have_snapshot) {
    CARAC_RETURN_IF_ERROR(db.OpenSnapshot(SnapshotPath()));
    evaluated_ = db.epoch() > 0;
    if (info != nullptr) {
      info->snapshot_loaded = true;
      info->snapshot_epoch = db.epoch();
    }
  }

  if (std::filesystem::exists(FactLogPath(), ec)) {
    storage::FactLog::ReplayResult replay;
    CARAC_RETURN_IF_ERROR(storage::FactLog::Replay(FactLogPath(), &replay));
    replaying_ = true;
    util::Status status;
    uint64_t applied = 0;
    for (const storage::FactLog::ReplayEpoch& epoch : replay.epochs) {
      // Epochs the snapshot already covers (a crash landed between the
      // snapshot rename and the log reset) are skipped, not re-applied.
      if (epoch.epoch <= db.epoch()) continue;
      status = ApplyReplayedEpoch(epoch);
      if (!status.ok()) break;
      ++applied;
      if (info != nullptr) ++info->epochs_replayed;
    }
    replaying_ = false;
    CARAC_RETURN_IF_ERROR(status);
    if (replay.torn_tail) {
      // Drop the crash debris so future appends extend a clean log.
      std::filesystem::resize_file(FactLogPath(), replay.committed_bytes,
                                   ec);
      if (ec) {
        return util::Status::Internal("cannot truncate torn fact log " +
                                      FactLogPath() + ": " + ec.message());
      }
      if (info != nullptr) info->log_tail_discarded = true;
    }
    // Only freshly applied epochs advance the auto-checkpoint clock;
    // epochs the snapshot already covered are not new work.
    epochs_since_checkpoint_ = applied;
  }
  logged_symbols_ = db.symbols().size();
  // Memory was just re-synced FROM the durable state, so any prior
  // append failure is moot.
  log_broken_ = false;
  uncommitted_batches_ = 0;
  // OpenSnapshot replaced the symbol table wholesale (same size does not
  // imply same contents), so the pinned decode table must be rebuilt.
  symbol_cache_.reset();
  PublishReadView();
  return util::Status::Ok();
}

std::vector<storage::Tuple> Engine::Results(
    datalog::PredicateId predicate) const {
  return program_->db()
      .Get(predicate, storage::DbKind::kDerived)
      .SortedRows();
}

size_t Engine::ResultSize(datalog::PredicateId predicate) const {
  return program_->db().Get(predicate, storage::DbKind::kDerived).size();
}

// ---- Epoch-snapshot reads ----

std::shared_ptr<const ReadView> Engine::PinReadView() const {
  std::lock_guard<std::mutex> lock(view_mutex_);
  return read_view_;
}

std::string Engine::FormatStats() const {
  // Byte-identical to what `carac serve`'s stats command has always
  // printed — cli_test pins this format, and the published ReadView
  // freezes the same text per epoch.
  std::string out;
  const storage::DatabaseSet& db = program_->db();
  for (datalog::PredicateId id = 0; id < program_->NumPredicates(); ++id) {
    const storage::Relation& rel = db.Get(id, storage::DbKind::kDerived);
    for (size_t i = 0; i < rel.NumIndexes(); ++i) {
      const storage::IndexBase& index = rel.IndexAt(i);
      out += "index " + program_->PredicateName(id) + " col" +
             std::to_string(index.column()) + " " +
             storage::IndexKindName(index.kind()) + "\n";
    }
  }
  for (const auto& [key, counters] : ctx_->profiler().counters()) {
    out += "probes " + program_->PredicateName(key.first) + " col" +
           std::to_string(key.second) +
           " points=" + std::to_string(counters.point_probes) +
           " hits=" + std::to_string(counters.point_hits) +
           " ranges=" + std::to_string(counters.range_probes) +
           " batch-windows=" + std::to_string(counters.batch_windows) + "\n";
  }
  // Range-pushdown decisions: which (relation, column) pairs lowering
  // annotated with index-range bounds. Emitted only when at least one
  // atom is annotated, so programs without comparison builtins keep the
  // exact pre-pushdown report (cli_test byte-pins that text).
  std::map<std::pair<datalog::PredicateId, int32_t>, size_t> pushdown_atoms;
  for (const ir::IROp* op : irp_.by_id) {
    if (op == nullptr) continue;
    for (const ir::AtomSpec& atom : op->atoms) {
      if (atom.has_range()) {
        pushdown_atoms[{atom.predicate, atom.range_col}]++;
      }
    }
  }
  for (const auto& [key, count] : pushdown_atoms) {
    out += "pushdown " + program_->PredicateName(key.first) + " col" +
           std::to_string(key.second) + " atoms=" + std::to_string(count) +
           "\n";
  }
  if (adaptive_policy_ == nullptr) {
    out += "adaptive off\n";
  } else {
    for (const optimizer::RekindEvent& event : adaptive_policy_->events()) {
      out += "rekind epoch=" + std::to_string(event.epoch) + " " +
             program_->PredicateName(event.relation) + " col" +
             std::to_string(event.column) + " " +
             storage::IndexKindName(event.from) + "->" +
             storage::IndexKindName(event.to) + "\n";
    }
    out += "rekind-events " +
           std::to_string(adaptive_policy_->events().size()) + "\n";
  }
  return out;
}

void Engine::PublishReadView() {
  storage::DatabaseSet& db = program_->db();
  auto view = std::make_shared<ReadView>();
  view->epoch = db.epoch();
  const size_t num_relations = db.NumRelations();
  view->relations.reserve(num_relations);
  for (storage::RelationId id = 0; id < num_relations; ++id) {
    view->relations.push_back(
        db.Get(id, storage::DbKind::kDerived).PinViewAtWatermark());
  }
  // Interning is append-only between Restores, so a size match means the
  // cached pinned table is still exact and can be shared across views.
  const storage::SymbolTable& symbols = db.symbols();
  if (symbol_cache_ == nullptr || symbol_cache_->size() != symbols.size()) {
    symbol_cache_ =
        std::make_shared<const std::vector<std::string>>(symbols.entries());
  }
  view->symbols = symbol_cache_;
  view->stats_text = FormatStats();
  std::lock_guard<std::mutex> lock(view_mutex_);
  read_view_ = std::move(view);
}

}  // namespace carac::core
