#ifndef CARAC_IR_ATOM_ACCESS_H_
#define CARAC_IR_ATOM_ACCESS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "datalog/builtins.h"
#include "ir/exec_context.h"
#include "ir/irop.h"
#include "storage/relation.h"

namespace carac::ir {

/// The access-path layer shared by the push interpreter and the pull
/// evaluator (§V-D: the two relational engines differ only in control
/// flow). A subquery's body is compiled once per evaluation into one
/// AtomAccess per atom; both engines then open rows, apply column
/// actions, batch probes and feed the profiler through the functions
/// below, so they make identical access-path decisions and record
/// identical probe counters.

/// Per-column behaviour of a positive relational atom against one row. A
/// variable's first occurrence within the atom binds; later occurrences
/// check (R(x, x) filters on its 2nd column).
struct ColAction {
  enum class Kind : uint8_t { kCheckConst, kCheckVar, kBind };
  Kind kind = Kind::kBind;
  uint32_t col = 0;
  storage::Value constant = 0;
  LocalVar var = -1;
};

/// Applies `actions` to `row`: false on a failed check, true with all
/// binds applied otherwise.
inline bool ApplyColActions(const std::vector<ColAction>& actions,
                            storage::TupleView row,
                            storage::Value* binding) {
  for (const ColAction& action : actions) {
    const storage::Value v = row[action.col];
    switch (action.kind) {
      case ColAction::Kind::kCheckConst:
        if (v != action.constant) return false;
        break;
      case ColAction::Kind::kCheckVar:
        if (v != binding[action.var]) return false;
        break;
      case ColAction::Kind::kBind:
        binding[action.var] = v;
        break;
    }
  }
  return true;
}

/// What an arithmetic builtin does with its output term.
enum class OutMode : uint8_t { kBind, kCheckVar, kCheckConst };

/// One body atom compiled against the variables bound before it.
struct AtomAccess {
  const AtomSpec* atom = nullptr;
  const storage::Relation* rel = nullptr;  ///< Relational atoms only.

  // ---- Positive relational atoms ----
  std::vector<ColAction> actions;
  /// Point probe on the first indexed column whose key is known before
  /// the atom runs (a constant or an already-bound variable; a variable
  /// first bound by this very atom is a within-row check), or -1.
  int32_t probe_col = -1;
  bool probe_is_const = false;
  storage::Value probe_const = 0;
  LocalVar probe_var = -1;
  /// Range pushdown: the atom carries annotated bounds on an indexed
  /// column and no point probe applies (a point probe always wins).
  bool range_candidate = false;
  /// Runtime counters for the column the access path touches (probe_col,
  /// or range_col for a range candidate), resolved here so the join loops
  /// pay plain increments. Null when the atom always scans.
  ColumnProbeStats* stats = nullptr;

  // ---- Arithmetic builtins ----
  OutMode out_mode = OutMode::kBind;
};

/// Compiles `op`'s body in order, tracking which variables each atom
/// finds bound. Counter slots come from `profiler`: the context's own on
/// the single-threaded path, a worker-private one inside a shard.
std::vector<AtomAccess> CompileAtoms(const storage::DatabaseSet& db,
                                     const IROp& op,
                                     AccessProfiler* profiler);

/// True when the body opens with the batched join's shape: two positive
/// relational atoms, the second point-probing on a variable (necessarily
/// one the first binds). Const-key probes are loop-invariant lookups and
/// keep the tuple-at-a-time path.
bool BatchJoinable(const std::vector<AtomAccess>& plan);

/// A builtin atom under the current binding: true when the comparison
/// holds or the arithmetic output agrees with (or, kBind, is written to)
/// its output term.
inline bool ApplyBuiltin(const AtomAccess& access, storage::Value* binding) {
  const AtomSpec& atom = *access.atom;
  const auto value_of = [&](const LocalTerm& t) {
    return t.is_var ? binding[t.var] : t.constant;
  };
  const storage::Value x = value_of(atom.terms[0]);
  const storage::Value y = value_of(atom.terms[1]);
  if (!datalog::BuiltinBindsOutput(atom.builtin)) {
    return datalog::EvalComparison(atom.builtin, x, y);
  }
  storage::Value z;
  if (!datalog::EvalArithmetic(atom.builtin, x, y, &z)) return false;
  switch (access.out_mode) {
    case OutMode::kBind:
      binding[atom.terms[2].var] = z;
      return true;
    case OutMode::kCheckVar:
      return binding[atom.terms[2].var] == z;
    case OutMode::kCheckConst:
      return atom.terms[2].constant == z;
  }
  return false;
}

/// A negated atom under the current binding: true when the resolved
/// tuple is absent. `scratch` holds the probe tuple.
bool NegationHolds(const AtomAccess& access, const storage::Value* binding,
                   storage::Tuple* scratch);

/// The row sequence of one positive relational atom under one binding:
/// RowIds from an index (a point-probe bucket or a range-probe row list,
/// both ascending) or, when `scan`, every RowId in [0, size). Positions
/// index this sequence, which is what the sharders split.
struct AtomRows {
  storage::RowCursor cursor;  ///< Unused when `scan`.
  size_t size = 0;
  bool scan = false;

  storage::RowId operator[](size_t pos) const {
    return scan ? static_cast<storage::RowId>(pos) : cursor[pos];
  }

  /// Calls fn(row) for positions [begin, min(end, size)) in order, as
  /// tight loops over the underlying spans.
  template <typename Fn>
  void ForEach(size_t begin, size_t end, Fn&& fn) const {
    end = std::min(end, size);
    if (scan) {
      for (size_t row = begin; row < end; ++row) {
        fn(static_cast<storage::RowId>(row));
      }
      return;
    }
    const size_t split = cursor.size0();
    const storage::RowId* span0 = cursor.span0();
    for (size_t pos = begin, n = std::min(end, split); pos < n; ++pos) {
      fn(span0[pos]);
    }
    const storage::RowId* span1 = cursor.span1();
    for (size_t pos = std::max(begin, split); pos < end; ++pos) {
      fn(span1[pos - split]);
    }
  }
};

/// Opens `access`'s row sequence under `binding`: the point-probe bucket
/// when a probe column applies, the range-probe rows when the range
/// candidate's index serves the resolved bounds (ir::TryRangeProbe), the
/// full scan otherwise. Declined range probes fall through to the scan;
/// the residual comparison builtins keep the result identical either
/// way. Probes are recorded into `stats` unless it is null — sizing
/// passes pass null so they do not double-count the probes the shard
/// workers take. `scratch` owns the range rows: it must outlive the
/// result and not be shared between live recursion depths.
AtomRows OpenRows(const AtomAccess& access, const storage::Value* binding,
                  ColumnProbeStats* stats,
                  std::vector<storage::RowId>* scratch);

/// One window of the batched join over a BatchJoinable plan's first two
/// atoms. Emission order is exactly the tuple-at-a-time nested loop's,
/// so results stay byte-identical to the goldens, which predate batching.
class ProbeWindow {
 public:
  /// Advances *pos over up to 64 outer positions (kProbeBatchWindow)
  /// before `limit`, keeping the rows that pass `outer`'s column actions,
  /// and resolves the kept rows' `inner` probe keys in one BatchProbe
  /// (counted in inner.stats). Returns the number of kept rows, possibly
  /// 0. Kept row k's binds must be re-applied (RestoreOuter) before its
  /// cursor is joined: the fill pass overwrites them row by row.
  size_t Fill(const AtomAccess& outer, const AtomRows& outer_rows,
              size_t* pos, size_t limit, const AtomAccess& inner,
              storage::Value* binding);

  /// Re-applies kept row k's binds (its checks already passed).
  void RestoreOuter(const AtomAccess& outer, size_t k,
                    storage::Value* binding) const;

  /// Inner rows matching kept row k's probe key.
  const storage::RowCursor& cursor(size_t k) const { return cursors_[k]; }

 private:
  std::vector<storage::RowId> rows_;
  std::vector<storage::Value> keys_;
  std::vector<storage::RowCursor> cursors_;
};

}  // namespace carac::ir

#endif  // CARAC_IR_ATOM_ACCESS_H_
