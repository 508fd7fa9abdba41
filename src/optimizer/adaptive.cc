#include "optimizer/adaptive.h"

namespace carac::optimizer {

storage::IndexKind AdaptiveIndexPolicy::DesiredKind(
    const ir::ColumnProbeStats& delta, bool stable) const {
  const double range_share =
      static_cast<double>(delta.range_probes) /
      static_cast<double>(delta.total());
  if (range_share >= 0.1) {
    // Ranges need an ordered kind. On a stable prefix the learned model
    // recovers most of hashing's point-probe advantage; a still-growing
    // relation would pay its stabilization every epoch, so it gets the
    // B-tree's incremental inserts instead.
    return stable ? storage::IndexKind::kLearned
                  : storage::IndexKind::kBtree;
  }
  // Point-dominated: the paper's hash organization wins.
  return storage::IndexKind::kHash;
}

void AdaptiveIndexPolicy::ObserveEpoch(storage::DatabaseSet* db,
                                       const ir::AccessProfiler& profiler) {
  for (const auto& [key, cumulative] : profiler.counters()) {
    const auto& [relation, column] = key;
    ColumnState& st = state_[key];
    const ir::ColumnProbeStats delta = cumulative.DeltaSince(st.snapshot);
    st.snapshot = cumulative;
    const storage::Relation& derived =
        db->Get(relation, storage::DbKind::kDerived);
    const uint64_t rows = derived.NumRows();
    // "Stable" = the relation gained no rows since the last policy call.
    // (Watermarks advance for every relation at every epoch close, so
    // they cannot distinguish a converged relation from a growing one.)
    const bool stable = st.seen && rows == st.last_rows;
    st.last_rows = rows;
    st.seen = true;

    if (st.cooldown > 0) {
      // Freshly migrated: let the new organization accumulate evidence
      // before it can be second-guessed.
      --st.cooldown;
      st.pending_epochs = 0;
      continue;
    }
    if (delta.total() < config_.min_probes) {
      // Too little traffic to justify a rebuild either way.
      st.pending_epochs = 0;
      continue;
    }
    if (!derived.HasIndex(column)) continue;  // Unindexed configuration.
    const storage::IndexKind current = derived.IndexKindOf(column);
    const storage::IndexKind desired = DesiredKind(delta, stable);
    if (desired == current) {
      st.pending_epochs = 0;
      continue;
    }
    if (st.pending_epochs == 0 || st.pending != desired) {
      st.pending = desired;
      st.pending_epochs = 1;
    } else {
      ++st.pending_epochs;
    }
    if (st.pending_epochs < config_.hysteresis_epochs) continue;
    // Migrate all three stores; the epoch just closed, so no probe
    // cursors are live and the rebuild is safe.
    db->RedeclareIndex(relation, column, desired);
    RekindEvent event;
    event.epoch = db->epoch();
    event.relation = relation;
    event.column = column;
    event.from = current;
    event.to = desired;
    events_.push_back(event);
    st.pending_epochs = 0;
    st.cooldown = config_.cooldown_epochs;
  }
}

}  // namespace carac::optimizer
