// Storage-equivalence golden test: the observable output of evaluation —
// SortedRows() of the headline relation — must be bit-identical across
// every execution backend AND across storage-engine rewrites. The goldens
// under tests/goldens/ were committed when the relations were node-based
// hash sets; the columnar arena engine (and any future layout) must keep
// reproducing them exactly.
//
// To regenerate after an *intentional* semantic change:
//   CARAC_UPDATE_GOLDENS=1 ./storage_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

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
  // Bounded reachability: the recursion's frontier column carries a
  // lower AND an upper comparison bound, so every evaluation path runs
  // its range-probe access path (or, with pushdown off / hash kinds,
  // the residual filtered scan) on every fixpoint iteration. The golden
  // pins that both paths emit byte-identical rows.
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
  w.relations["Edge"] = edge.id();
  w.relations["Reach"] = reach.id();
  for (const auto& e : edges) {
    w.program->AddFact(edge.id(), {e.first, e.second});
  }
  return w;
}

/// One line per tuple, tab-separated raw values, trailing newline.
/// (Symbols render as their interned ids: construction order is
/// deterministic, so the ids are stable.)
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

std::string RunBackend(const WorkloadFn& make, const core::EngineConfig& ec) {
  analysis::Workload w = make();
  core::Engine engine(w.program.get(), ec);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  return Render(engine.Results(w.output));
}

void CheckAgainstGolden(const std::string& golden_name,
                        const WorkloadFn& make) {
  const std::string interpreted =
      RunBackend(make, harness::InterpretedConfig(true));

  core::EngineConfig bytecode;
  bytecode.mode = core::EvalMode::kJit;
  bytecode.jit.backend = backends::BackendKind::kBytecode;
  const std::string via_bytecode = RunBackend(make, bytecode);

  core::EngineConfig quotes;
  quotes.mode = core::EvalMode::kJit;
  quotes.jit.backend = backends::BackendKind::kQuotes;
  const std::string via_quotes = RunBackend(make, quotes);

  // All three execution paths agree with each other...
  EXPECT_EQ(interpreted, via_bytecode) << golden_name;
  EXPECT_EQ(interpreted, via_quotes) << golden_name;

  const std::string path =
      std::string(CARAC_GOLDEN_DIR) + "/" + golden_name + ".golden";
  if (std::getenv("CARAC_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << interpreted;
    return;
  }

  // ...and with the committed snapshot.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with CARAC_UPDATE_GOLDENS=1)";
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), interpreted) << golden_name;
  EXPECT_FALSE(interpreted.empty()) << golden_name;
}

TEST(StorageGoldenTest, TransitiveClosureAllBackends) {
  CheckAgainstGolden("tc", MakeTcWorkload);
}

TEST(StorageGoldenTest, AndersenAllBackends) {
  CheckAgainstGolden("andersen", MakeAndersenWorkload);
}

TEST(StorageGoldenTest, BoundedReachAllBackends) {
  CheckAgainstGolden("range", MakeBoundedReachWorkload);
}

// Every index organization must reproduce the committed goldens exactly:
// probe results come back in ascending RowId order regardless of how the
// index stores its postings, so the insertion sequence — and therefore
// the rendered output — cannot move when the index kind does.
void CheckGoldenUnderConfig(const std::string& golden_name,
                            const WorkloadFn& make,
                            const core::EngineConfig& config,
                            const std::string& label) {
  const std::string got = RunBackend(make, config);

  const std::string path =
      std::string(CARAC_GOLDEN_DIR) + "/" + golden_name + ".golden";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), got) << golden_name << " under " << label;
}

void CheckGoldenUnderKind(const std::string& golden_name,
                          const WorkloadFn& make, storage::IndexKind kind) {
  core::EngineConfig config = harness::InterpretedConfig(true);
  config.index_kind = kind;
  CheckGoldenUnderConfig(golden_name, make, config,
                         storage::IndexKindName(kind));
}

class StorageGoldenKindTest
    : public ::testing::TestWithParam<storage::IndexKind> {};

TEST_P(StorageGoldenKindTest, TransitiveClosureMatchesGolden) {
  CheckGoldenUnderKind("tc", MakeTcWorkload, GetParam());
}

TEST_P(StorageGoldenKindTest, AndersenMatchesGolden) {
  CheckGoldenUnderKind("andersen", MakeAndersenWorkload, GetParam());
}

TEST_P(StorageGoldenKindTest, BoundedReachMatchesGolden) {
  CheckGoldenUnderKind("range", MakeBoundedReachWorkload, GetParam());
}

// Pushdown on vs off must not move a byte, per kind: ordered kinds
// actually take the ProbeRange path when on, hash kinds decline — both
// must render exactly the committed golden.
TEST_P(StorageGoldenKindTest, BoundedReachPushdownOffMatchesGolden) {
  core::EngineConfig config = harness::InterpretedConfig(true);
  config.index_kind = GetParam();
  config.range_pushdown = false;
  CheckGoldenUnderConfig(
      "range", MakeBoundedReachWorkload, config,
      std::string(storage::IndexKindName(GetParam())) + " pushdown-off");
}

// The pull engine and the sharded parallel path serve the same bounds
// through their own range cursors; the golden must not move there
// either, at any thread count.
TEST(StorageGoldenTest, BoundedReachPullMatchesGolden) {
  core::EngineConfig config = harness::InterpretedConfig(true);
  config.engine_style = ir::EngineStyle::kPull;
  config.index_kind = storage::IndexKind::kBtree;
  CheckGoldenUnderConfig("range", MakeBoundedReachWorkload, config, "pull");
}

TEST(StorageGoldenTest, BoundedReachParallelMatchesGolden) {
  for (int threads : {2, 4}) {
    core::EngineConfig config = harness::InterpretedConfig(true);
    config.num_threads = threads;
    config.parallel_min_outer_rows = 1;
    config.index_kind = storage::IndexKind::kBtree;
    CheckGoldenUnderConfig("range", MakeBoundedReachWorkload, config,
                           std::to_string(threads) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, StorageGoldenKindTest,
    ::testing::Values(storage::IndexKind::kHash, storage::IndexKind::kBtree,
                      storage::IndexKind::kLearned),
    [](const ::testing::TestParamInfo<storage::IndexKind>& info) {
      return std::string(storage::IndexKindName(info.param));
    });

}  // namespace
}  // namespace carac
