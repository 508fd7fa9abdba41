// Parallel-evaluation determinism: the rendered SortedRows of the tc and
// Andersen workloads at 2/4/8 threads must be byte-identical to the
// committed goldens under tests/goldens/ — the same snapshots the storage
// golden test pins — for both relational engines, with the parallel path
// both at its default dispatch threshold and forced onto every subquery.
// The goldens predate the worker pool, so passing here proves that
// num_threads changes nothing observable, only wall-clock. A last test
// pins that push and pull record identical per-column probe counters.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "core/engine.h"
#include "datalog/dsl.h"
#include "harness/runner.h"
#include "storage/index.h"

#ifndef CARAC_GOLDEN_DIR
#error "CARAC_GOLDEN_DIR must point at tests/goldens"
#endif

namespace carac {
namespace {

using WorkloadFn = std::function<analysis::Workload()>;

analysis::Workload MakeTcWorkload() {
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/11, /*num_vertices=*/300, /*num_edges=*/900, /*zipf_s=*/1.1);
  return analysis::MakeTransitiveClosure(edges,
                                         analysis::RuleOrder::kHandOptimized);
}

analysis::Workload MakeAndersenWorkload() {
  analysis::SListConfig config;
  config.scale = 2;
  return analysis::MakeAndersen(config, analysis::RuleOrder::kHandOptimized);
}

analysis::Workload MakeBoundedReachWorkload() {
  // The recursion's frontier column carries a lower and an upper
  // comparison bound, so the evaluators take their range-probe access
  // path (ordered kinds) or record declined range demand (hash).
  const auto edges = analysis::GenerateSparseGraph(
      /*seed=*/23, /*num_vertices=*/250, /*num_edges=*/800, /*zipf_s=*/1.1);
  analysis::Workload w;
  w.name = "BoundedReach";
  w.program = std::make_unique<datalog::Program>();
  datalog::Dsl dsl(w.program.get());
  auto edge = dsl.Relation("Edge", 2);
  auto reach = dsl.Relation("Reach", 2);
  auto [x, y, z] = dsl.Vars<3>();
  reach(x, y) <<= edge(x, y);
  reach(x, z) <<= reach(x, y) & edge(y, z) & dsl.Ge(y, 20) & dsl.Lt(y, 200);
  w.output = reach.id();
  for (const auto& e : edges) {
    w.program->AddFact(edge.id(), {e.first, e.second});
  }
  return w;
}

/// One line per tuple, tab-separated raw values, trailing newline —
/// the same rendering storage_golden_test committed the goldens with.
std::string Render(const std::vector<storage::Tuple>& rows) {
  std::ostringstream out;
  for (const storage::Tuple& t : rows) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << '\t';
      out << t[i];
    }
    out << '\n';
  }
  return out.str();
}

std::string ReadGolden(const std::string& name) {
  const std::string path =
      std::string(CARAC_GOLDEN_DIR) + "/" + name + ".golden";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

std::string RunThreads(const WorkloadFn& make, int num_threads,
                       ir::EngineStyle style, uint32_t min_outer_rows) {
  analysis::Workload w = make();
  core::EngineConfig config = harness::InterpretedConfig(true);
  config.num_threads = num_threads;
  config.engine_style = style;
  config.parallel_min_outer_rows = min_outer_rows;
  core::Engine engine(w.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  return Render(engine.Results(w.output));
}

void CheckThreadCounts(const std::string& golden_name,
                       const WorkloadFn& make) {
  const std::string golden = ReadGolden(golden_name);
  ASSERT_FALSE(golden.empty()) << golden_name;
  for (ir::EngineStyle style :
       {ir::EngineStyle::kPush, ir::EngineStyle::kPull}) {
    // num_threads=1 must be bit-identical to pre-parallel behaviour.
    EXPECT_EQ(RunThreads(make, 1, style, 128), golden)
        << golden_name << " 1 thread " << ir::EngineStyleName(style);
    for (int threads : {2, 4, 8}) {
      for (uint32_t min_rows : {128u, 1u}) {
        EXPECT_EQ(RunThreads(make, threads, style, min_rows), golden)
            << golden_name << " " << threads << " threads "
            << ir::EngineStyleName(style) << " min_rows=" << min_rows;
      }
    }
  }
}

TEST(ParallelDeterminismTest, TransitiveClosure) {
  CheckThreadCounts("tc", MakeTcWorkload);
}

TEST(ParallelDeterminismTest, Andersen) {
  CheckThreadCounts("andersen", MakeAndersenWorkload);
}

// Beyond SortedRows: with staged merges the *insertion order* (and hence
// every RowId) must also match single-threaded evaluation. ExecStats are a
// cheap proxy with real teeth — tuples_considered/inserted and the
// iteration count would all drift if sharding reordered or lost work.
TEST(ParallelDeterminismTest, StatsMatchSingleThreaded) {
  for (ir::EngineStyle style :
       {ir::EngineStyle::kPush, ir::EngineStyle::kPull}) {
    analysis::Workload reference_workload = MakeTcWorkload();
    core::EngineConfig config = harness::InterpretedConfig(true);
    config.engine_style = style;
    core::Engine reference(reference_workload.program.get(), config);
    CARAC_CHECK_OK(reference.Prepare());
    CARAC_CHECK_OK(reference.Run());

    for (int threads : {2, 8}) {
      analysis::Workload w = MakeTcWorkload();
      core::EngineConfig parallel = config;
      parallel.num_threads = threads;
      parallel.parallel_min_outer_rows = 1;
      core::Engine engine(w.program.get(), parallel);
      CARAC_CHECK_OK(engine.Prepare());
      CARAC_CHECK_OK(engine.Run());
      EXPECT_EQ(engine.stats().ToString(), reference.stats().ToString())
          << threads << " threads " << ir::EngineStyleName(style);
    }
  }
}

/// The run's per-(relation, column) probe counters, one line per slot.
std::string ProbeCounters(const WorkloadFn& make, ir::EngineStyle style,
                          int num_threads, storage::IndexKind kind,
                          uint64_t* point_probes) {
  analysis::Workload w = make();
  core::EngineConfig config = harness::InterpretedConfig(true);
  config.engine_style = style;
  config.num_threads = num_threads;
  config.parallel_min_outer_rows = 1;
  config.index_kind = kind;
  core::Engine engine(w.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  std::ostringstream out;
  *point_probes = 0;
  for (const auto& [key, c] : engine.profiler().counters()) {
    out << key.first << " col" << key.second << " points=" << c.point_probes
        << " hits=" << c.point_hits << " ranges=" << c.range_probes
        << " windows=" << c.batch_windows << '\n';
    *point_probes += c.point_probes;
  }
  return out.str();
}

// Push and pull share one access-path layer, so beyond equal results they
// must take the same probes: every per-column counter the adaptive index
// policy reads is identical across engines, at one thread and sharded.
TEST(ParallelDeterminismTest, PushAndPullRecordIdenticalProbeCounters) {
  const std::pair<const char*, WorkloadFn> workloads[] = {
      {"tc", MakeTcWorkload},
      {"andersen", MakeAndersenWorkload},
      {"bounded-reach", MakeBoundedReachWorkload},
  };
  for (const auto& [name, make] : workloads) {
    for (storage::IndexKind kind :
         {storage::IndexKind::kHash, storage::IndexKind::kBtree}) {
      for (int threads : {1, 4}) {
        uint64_t push_points = 0;
        uint64_t pull_points = 0;
        const std::string push = ProbeCounters(
            make, ir::EngineStyle::kPush, threads, kind, &push_points);
        const std::string pull = ProbeCounters(
            make, ir::EngineStyle::kPull, threads, kind, &pull_points);
        EXPECT_GT(push_points, 0u) << name;
        EXPECT_EQ(push, pull) << name << " "
                              << storage::IndexKindName(kind) << " "
                              << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace carac
