// Incremental epoch latency vs full re-evaluation.
//
// The claim under test: with epoch-based evaluation, absorbing a fact
// delta costs proportional to the delta, not the database. For each
// workload and delta size (1% and 10% of the EDB) this bench measures
//   full:  evaluating the union of the facts from scratch, and
//   epoch: AddFacts(delta) + Update() on an engine already at fixpoint
//          over the other (100 - delta)% of the facts,
// checks both land on the same result cardinality, and reports the
// speedup. Each measurement is also a `RECORD incremental` line
// (bench::Record) in the scripts/run_benches.sh snapshot.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "bench_common.h"
#include "core/engine.h"
#include "util/timer.h"

namespace {

using namespace carac;

constexpr int kReps = 3;

/// Per-relation fact lists of a freshly built workload (construction
/// inserts facts into Derived), split into a head (the pre-loaded
/// database) and a tail (the update batch) of ~`delta_frac` per relation.
struct FactSplit {
  std::vector<std::vector<storage::Tuple>> head;
  std::vector<std::vector<storage::Tuple>> tail;
  size_t tail_rows = 0;
};

FactSplit SplitFacts(const analysis::Workload& w, double delta_frac) {
  const storage::DatabaseSet& db = w.program->db();
  FactSplit split;
  split.head.resize(db.NumRelations());
  split.tail.resize(db.NumRelations());
  for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
    const storage::Relation& rel = db.Get(id, storage::DbKind::kDerived);
    const size_t rows = rel.NumRows();
    const size_t tail_n =
        rows >= 10 ? std::max<size_t>(1, static_cast<size_t>(
                                            static_cast<double>(rows) *
                                            delta_frac))
                   : 0;
    for (storage::RowId row = 0; row < rows; ++row) {
      auto& dest = row < rows - tail_n ? split.head[id] : split.tail[id];
      dest.push_back(rel.View(row).ToTuple());
    }
    split.tail_rows += split.tail[id].size();
  }
  return split;
}

struct IncResult {
  double full_seconds = 0;
  double epoch_seconds = 0;
  size_t output_rows = 0;
  size_t delta_rows = 0;
  bool consistent = true;
};

/// `make` must rebuild the identical workload on every call (the fact
/// generators are seeded, so it does).
IncResult Measure(const harness::WorkloadFactory& make,
                  const core::EngineConfig& config, double delta_frac) {
  IncResult result;

  // Full evaluation over the union of the facts: the shared harness
  // methodology (fresh engine per rep, Prepare() excluded, median kept).
  const harness::Measurement full =
      harness::MeasureMedian(make, config, kReps);
  CARAC_CHECK(full.ok);
  result.full_seconds = full.seconds;
  result.output_rows = full.result_size;

  // Incremental: pre-load all but the delta, reach fixpoint (untimed),
  // then time AddFacts + Update alone — the steady-state serving cost.
  std::vector<double> epoch_times;
  for (int rep = 0; rep < kReps; ++rep) {
    analysis::Workload w = make();
    const FactSplit split = SplitFacts(w, delta_frac);
    storage::DatabaseSet& db = w.program->db();
    for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
      db.ClearFacts(id);
    }
    core::Engine engine(w.program.get(), config);
    for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
      CARAC_CHECK_OK(engine.AddFacts(id, split.head[id]));
    }
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    util::Timer timer;
    for (storage::RelationId id = 0; id < db.NumRelations(); ++id) {
      CARAC_CHECK_OK(engine.AddFacts(id, split.tail[id]));
    }
    CARAC_CHECK_OK(engine.Update());
    epoch_times.push_back(timer.ElapsedSeconds());
    result.delta_rows = split.tail_rows;
    if (engine.ResultSize(w.output) != result.output_rows) {
      result.consistent = false;
    }
  }
  result.epoch_seconds = bench::Median(epoch_times);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --threads applies to BOTH arms (full and epoch), so the reported
  // speedup stays an apples-to-apples comparison at that pool width.
  core::EngineConfig config;
  config.num_threads = bench::ParseArgs(argc, argv, false).threads;
  const bench::Sizes sizes = bench::Sizes::Get();
  // Edge/vertex ratio 1.5 keeps the closure sparse enough that a 1%
  // edge delta derives a proportionally small path delta; denser graphs
  // (ratio 3) make 1% of the edges rewrite >10% of the closure, which
  // caps the measurable speedup at the workload's physics rather than
  // the engine's epoch overhead.
  const int64_t tc_vertices = bench::LargeScale() ? 30000 : 10000;
  const int64_t tc_edges = bench::LargeScale() ? 45000 : 15000;

  std::printf("Incremental epochs: update latency vs full re-evaluation\n");
  std::printf("(tc: %lld vertices / %lld edges; andersen: slist scale "
              "%lld; threads=%d; median of %d)\n\n",
              static_cast<long long>(tc_vertices),
              static_cast<long long>(tc_edges),
              static_cast<long long>(sizes.slist_scale), config.num_threads,
              kReps);

  struct Spec {
    const char* name;
    harness::WorkloadFactory make;
  };
  const std::vector<Spec> specs = {
      {"tc",
       [&] {
         return analysis::MakeTransitiveClosure(
             analysis::GenerateSparseGraph(/*seed=*/11, tc_vertices,
                                           tc_edges, /*zipf_s=*/1.1),
             analysis::RuleOrder::kHandOptimized);
       }},
      {"andersen",
       [&] {
         analysis::SListConfig config;
         config.scale = sizes.slist_scale;
         return analysis::MakeAndersen(config,
                                       analysis::RuleOrder::kHandOptimized);
       }},
  };

  harness::TablePrinter table({"workload", "delta", "full (s)", "epoch (s)",
                               "speedup", "output rows"});
  bool all_consistent = true;
  for (const Spec& spec : specs) {
    for (int pct : {1, 10}) {
      const IncResult r = Measure(spec.make, config, pct / 100.0);
      all_consistent &= r.consistent;
      const double speedup =
          r.epoch_seconds > 0 ? r.full_seconds / r.epoch_seconds : 0;
      table.AddRow({spec.name, std::to_string(pct) + "% (" +
                                   std::to_string(r.delta_rows) + " rows)",
                    harness::FormatSeconds(r.full_seconds),
                    harness::FormatSeconds(r.epoch_seconds),
                    harness::FormatSpeedup(speedup),
                    std::to_string(r.output_rows)});
      bench::Record("incremental", {{"workload", spec.name},
                                    {"delta_pct", pct},
                                    {"full_seconds", r.full_seconds},
                                    {"epoch_seconds", r.epoch_seconds},
                                    {"speedup", speedup}});
    }
  }
  std::printf("\n");
  table.Print();
  if (!all_consistent) {
    std::fprintf(stderr,
                 "error: incremental epoch diverged from full evaluation\n");
    return 1;
  }
  return 0;
}
