#ifndef CARAC_OPTIMIZER_SELECTIVITY_H_
#define CARAC_OPTIMIZER_SELECTIVITY_H_

#include <cstdint>
#include <set>

#include "ir/irop.h"
#include "storage/index.h"

namespace carac::optimizer {

struct ColumnAccess;

/// When an EDB relation is at least this large, a range-only column gets
/// the learned organization instead of the B-tree: bulk-loaded facts
/// stabilize once and then every probe searches contiguous memory. Below
/// it the B-tree's incremental inserts win (the sort and model fit have
/// nothing to amortize over).
inline constexpr uint64_t kLearnedMinRows = 1024;

/// Picks the index organization for one column from its access profile
/// (statistics.h ProfileAccessPaths), the relation's current EDB row
/// count, and whether rules derive into the relation. Deliberately
/// conservative: any point-probe evidence keeps the paper's hash
/// organization (point probes dominate Datalog joins and hash wins
/// them); only range-ONLY columns — never point-probed by any rule — get
/// an ordered kind. IDB relations grow during the fixpoint, which favors
/// the B-tree's incremental inserts; stable EDB relations favor the
/// learned kind once large enough to amortize stabilization.
storage::IndexKind ChooseIndexKind(const ColumnAccess& access,
                                   uint64_t edb_rows, bool is_idb);

/// Carac's deliberately lightweight selectivity model (§IV): every join or
/// filter condition contributes one constant reduction factor, assuming
/// statistical independence. Richer statistics (histograms) are possible
/// but would add runtime overhead to every reordering.
inline constexpr double kDefaultReductionFactor = 0.25;

/// Number of conditions an atom contributes given the currently bound
/// variables: one per constant column plus one per column whose variable
/// is already bound.
int CountBoundConditions(const ir::AtomSpec& atom,
                         const std::set<ir::LocalVar>& bound);

/// True if the atom shares at least one variable with the bound set, i.e.
/// joining it does not create a cartesian product.
bool IsConnected(const ir::AtomSpec& atom,
                 const std::set<ir::LocalVar>& bound);

/// A range probe replaces a filtered full scan only when it is expected
/// to skip at least half the rows. Coverage is estimated uniformly:
/// requested span / indexed key span. Above this threshold the probe's
/// sort-by-RowId pass (needed to preserve the determinism contract)
/// costs more than the scan saves, so the evaluators decline and fall
/// back to scan+filter.
inline constexpr double kRangePushdownMaxCoverage = 0.5;

/// Decides whether serving [lo, hi] through ProbeRange beats a filtered
/// full scan, given the index's key extremes [key_min, key_max]
/// (Relation::IndexKeyBounds). Uniform-distribution estimate — see
/// EXPERIMENTS.md for the break-even methodology.
bool RangeProbeProfitable(storage::Value lo, storage::Value hi,
                          storage::Value key_min, storage::Value key_max);

}  // namespace carac::optimizer

#endif  // CARAC_OPTIMIZER_SELECTIVITY_H_
