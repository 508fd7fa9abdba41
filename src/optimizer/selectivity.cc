#include "optimizer/selectivity.h"

#include "optimizer/statistics.h"

namespace carac::optimizer {

storage::IndexKind ChooseIndexKind(const ColumnAccess& access,
                                   uint64_t edb_rows, bool is_idb) {
  if (access.range_uses == 0 || access.point_uses > 0) {
    return storage::IndexKind::kHash;
  }
  if (is_idb || edb_rows < kLearnedMinRows) return storage::IndexKind::kBtree;
  return storage::IndexKind::kLearned;
}

int CountBoundConditions(const ir::AtomSpec& atom,
                         const std::set<ir::LocalVar>& bound) {
  int conditions = 0;
  std::set<ir::LocalVar> seen_here;
  for (const ir::LocalTerm& t : atom.terms) {
    if (!t.is_var) {
      ++conditions;
    } else if (bound.count(t.var) > 0) {
      ++conditions;
    } else if (!seen_here.insert(t.var).second) {
      // Repeated fresh variable within the atom (e.g. R(x, x)) is a
      // self-equality filter.
      ++conditions;
    }
  }
  return conditions;
}

bool IsConnected(const ir::AtomSpec& atom,
                 const std::set<ir::LocalVar>& bound) {
  for (const ir::LocalTerm& t : atom.terms) {
    if (t.is_var && bound.count(t.var) > 0) return true;
  }
  return false;
}

bool RangeProbeProfitable(storage::Value lo, storage::Value hi,
                          storage::Value key_min, storage::Value key_max) {
  // Clamp the request to the indexed span; an empty intersection is
  // maximally selective.
  const storage::Value clo = lo < key_min ? key_min : lo;
  const storage::Value chi = hi > key_max ? key_max : hi;
  if (clo > chi) return true;
  // Doubles avoid signed overflow on spans like [INT64_MIN, INT64_MAX].
  const double span = static_cast<double>(chi) - static_cast<double>(clo) + 1.0;
  const double key_span =
      static_cast<double>(key_max) - static_cast<double>(key_min) + 1.0;
  return span / key_span <= kRangePushdownMaxCoverage;
}

}  // namespace carac::optimizer
