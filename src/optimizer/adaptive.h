#ifndef CARAC_OPTIMIZER_ADAPTIVE_H_
#define CARAC_OPTIMIZER_ADAPTIVE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "ir/exec_context.h"
#include "storage/database.h"
#include "storage/index.h"

namespace carac::optimizer {

/// Knobs of the adaptive re-kinding policy. The defaults favor
/// convergence over reactivity: a column must show the same desire for
/// `hysteresis_epochs` consecutive epochs before it migrates, and after a
/// migration it sits out `cooldown_epochs` so the rebuilt index gets a
/// chance to prove itself before being second-guessed.
struct AdaptiveIndexConfig {
  /// Columns probed fewer times than this in an epoch carry no evidence:
  /// whatever kind they have is not hurting, so they keep it.
  uint64_t min_probes = 256;
  /// Consecutive epochs a recommendation must repeat before it applies.
  uint32_t hysteresis_epochs = 2;
  /// Epochs a freshly migrated column is exempt from re-evaluation.
  uint32_t cooldown_epochs = 2;
};

/// One index migration the policy performed, for `serve stats` and tests.
struct RekindEvent {
  uint64_t epoch = 0;
  storage::RelationId relation = 0;
  uint32_t column = 0;
  storage::IndexKind from = storage::IndexKind::kHash;
  storage::IndexKind to = storage::IndexKind::kHash;
};

/// Epoch-close policy that compares each indexed column's OBSERVED access
/// mix (ir::AccessProfiler — what the evaluators actually did) against
/// its current organization and migrates it through
/// DatabaseSet::RedeclareIndex when the evidence says another kind wins:
///
///   >= 10% ranges  -> kLearned when the relation has stopped growing
///                     (model-accelerated points, contiguous ranges),
///                     else kBtree (incremental ordered inserts)
///   otherwise      -> kHash
///
/// Every kind preserves the ascending-RowId probe contract, so any
/// re-kinding schedule leaves evaluation results byte-identical — the
/// policy can only change speed, never answers. Runs only at quiescent
/// points (epoch close), where RedeclareIndex is safe.
class AdaptiveIndexPolicy {
 public:
  explicit AdaptiveIndexPolicy(AdaptiveIndexConfig config = {})
      : config_(config) {}

  /// Consumes the epoch that just closed: diffs `profiler`'s cumulative
  /// counters against the last call's snapshot, updates per-column
  /// hysteresis state, and applies any migration that has cleared it.
  /// Call once per closed epoch, at a quiescent point.
  void ObserveEpoch(storage::DatabaseSet* db,
                    const ir::AccessProfiler& profiler);

  /// Every migration applied since construction, in order.
  const std::vector<RekindEvent>& events() const { return events_; }

  const AdaptiveIndexConfig& config() const { return config_; }

 private:
  struct ColumnState {
    /// Cumulative counters at the last ObserveEpoch, for deltas.
    ir::ColumnProbeStats snapshot;
    /// Derived row count at the last ObserveEpoch: unchanged == stable.
    uint64_t last_rows = 0;
    bool seen = false;
    /// Hysteresis: the kind recommended last epoch and for how many
    /// consecutive epochs.
    storage::IndexKind pending = storage::IndexKind::kHash;
    uint32_t pending_epochs = 0;
    /// Cooldown epochs left before this column is re-evaluated.
    uint32_t cooldown = 0;
  };

  /// The kind the observed mix asks for, given growth behaviour.
  storage::IndexKind DesiredKind(const ir::ColumnProbeStats& delta,
                                 bool stable) const;

  AdaptiveIndexConfig config_;
  std::map<ir::AccessProfiler::Key, ColumnState> state_;
  std::vector<RekindEvent> events_;
};

}  // namespace carac::optimizer

#endif  // CARAC_OPTIMIZER_ADAPTIVE_H_
