#include "ir/atom_access.h"

#include "ir/range_access.h"

namespace carac::ir {

using storage::RowCursor;
using storage::RowId;
using storage::Value;

namespace {

/// Outer rows per batched index probe: the batched join resolves up to
/// this many inner probe keys per BatchProbe call (amortizing dispatch,
/// skipping equal-adjacent keys, and letting the B-tree probe in key
/// order).
constexpr size_t kProbeBatchWindow = 64;

}  // namespace

std::vector<AtomAccess> CompileAtoms(const storage::DatabaseSet& db,
                                     const IROp& op,
                                     AccessProfiler* profiler) {
  std::vector<bool> bound(op.num_locals, false);
  std::vector<AtomAccess> plan;
  plan.reserve(op.atoms.size());
  for (const AtomSpec& atom : op.atoms) {
    AtomAccess& a = plan.emplace_back();
    a.atom = &atom;
    if (atom.is_builtin()) {
      if (datalog::BuiltinBindsOutput(atom.builtin)) {
        const LocalTerm& out = atom.terms[2];
        if (!out.is_var) {
          a.out_mode = OutMode::kCheckConst;
        } else if (bound[out.var]) {
          a.out_mode = OutMode::kCheckVar;
        } else {
          a.out_mode = OutMode::kBind;
          bound[out.var] = true;
        }
      }
      continue;
    }
    a.rel = &db.Get(atom.predicate, atom.source);
    if (atom.negated) continue;  // Membership test: no binds, no probe.
    // Probe column: the first indexed column whose key is known before
    // the atom runs. A variable first bound by this very atom (the second
    // x of R(x, x)) is a within-row check, not a probe key.
    for (uint32_t col = 0; col < atom.terms.size(); ++col) {
      const LocalTerm& t = atom.terms[col];
      if ((!t.is_var || bound[t.var]) && a.rel->HasIndex(col)) {
        a.probe_col = static_cast<int32_t>(col);
        a.probe_is_const = !t.is_var;
        a.probe_const = t.constant;
        a.probe_var = t.var;
        break;
      }
    }
    a.actions.reserve(atom.terms.size());
    for (uint32_t col = 0; col < atom.terms.size(); ++col) {
      const LocalTerm& t = atom.terms[col];
      ColAction& action = a.actions.emplace_back();
      action.col = col;
      if (!t.is_var) {
        action.kind = ColAction::Kind::kCheckConst;
        action.constant = t.constant;
      } else if (bound[t.var]) {
        action.kind = ColAction::Kind::kCheckVar;
        action.var = t.var;
      } else {
        action.kind = ColAction::Kind::kBind;
        action.var = t.var;
        bound[t.var] = true;
      }
    }
    if (a.probe_col >= 0) {
      a.stats = profiler->Slot(atom.predicate,
                               static_cast<size_t>(a.probe_col));
    } else if (atom.has_range() &&
               a.rel->HasIndex(static_cast<size_t>(atom.range_col))) {
      a.range_candidate = true;
      a.stats = profiler->Slot(atom.predicate,
                               static_cast<size_t>(atom.range_col));
    }
  }
  return plan;
}

bool BatchJoinable(const std::vector<AtomAccess>& plan) {
  if (plan.size() < 2) return false;
  if (!plan[0].atom->is_join_atom() || !plan[1].atom->is_join_atom()) {
    return false;
  }
  return plan[1].probe_col >= 0 && !plan[1].probe_is_const;
}

bool NegationHolds(const AtomAccess& access, const Value* binding,
                   storage::Tuple* scratch) {
  scratch->clear();
  for (const LocalTerm& t : access.atom->terms) {
    scratch->push_back(t.is_var ? binding[t.var] : t.constant);
  }
  return !access.rel->Contains(*scratch);
}

AtomRows OpenRows(const AtomAccess& access, const Value* binding,
                  ColumnProbeStats* stats, std::vector<RowId>* scratch) {
  AtomRows rows;
  const storage::Relation& rel = *access.rel;
  if (access.probe_col >= 0) {
    rows.cursor = rel.Probe(
        static_cast<size_t>(access.probe_col),
        access.probe_is_const ? access.probe_const : binding[access.probe_var]);
    if (stats != nullptr) {
      stats->point_probes++;
      stats->point_hits += !rows.cursor.empty();
    }
  } else if (access.range_candidate &&
             TryRangeProbe(rel, static_cast<size_t>(access.atom->range_col),
                           ResolveRange(*access.atom, binding), stats,
                           scratch)) {
    rows.cursor = RowCursor(scratch->data(), scratch->size());
  } else {
    rows.scan = true;
    rows.size = rel.NumRows();
    return rows;
  }
  rows.size = rows.cursor.size();
  return rows;
}

size_t ProbeWindow::Fill(const AtomAccess& outer, const AtomRows& outer_rows,
                         size_t* pos, size_t limit, const AtomAccess& inner,
                         Value* binding) {
  rows_.clear();
  keys_.clear();
  for (const size_t end = std::min(*pos + kProbeBatchWindow, limit);
       *pos < end; ++*pos) {
    const RowId row = outer_rows[*pos];
    if (!ApplyColActions(outer.actions, outer.rel->View(row), binding)) {
      continue;
    }
    rows_.push_back(row);
    keys_.push_back(binding[inner.probe_var]);
  }
  if (rows_.empty()) return 0;
  if (cursors_.size() < kProbeBatchWindow) cursors_.resize(kProbeBatchWindow);
  inner.rel->BatchProbe(static_cast<size_t>(inner.probe_col), keys_.data(),
                        rows_.size(), cursors_.data());
  inner.stats->batch_windows++;
  inner.stats->point_probes += rows_.size();
  for (size_t k = 0; k < rows_.size(); ++k) {
    inner.stats->point_hits += !cursors_[k].empty();
  }
  return rows_.size();
}

void ProbeWindow::RestoreOuter(const AtomAccess& outer, size_t k,
                               Value* binding) const {
  const storage::TupleView t = outer.rel->View(rows_[k]);
  for (const ColAction& action : outer.actions) {
    if (action.kind == ColAction::Kind::kBind) {
      binding[action.var] = t[action.col];
    }
  }
}

}  // namespace carac::ir
