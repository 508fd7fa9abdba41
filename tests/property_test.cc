// Property-based suites: every evaluation configuration must produce the
// exact same model (set of derived facts) as the reference interpreter,
// across a family of randomized programs; and the join order must never
// affect results, only performance.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/factgen.h"
#include "analysis/programs.h"
#include "core/engine.h"
#include "datalog/dsl.h"
#include "storage/index.h"
#include "storage/relation.h"
#include "storage/staging_buffer.h"
#include "util/rng.h"

namespace carac {
namespace {

using analysis::Workload;
using backends::BackendKind;
using backends::CompileMode;
using core::EngineConfig;
using core::EvalMode;
using core::Granularity;

/// The randomized program family: transitive closure plus a secondary
/// derived relation with negation and arithmetic, over a seeded graph.
Workload MakeRandomWorkload(uint64_t seed) {
  Workload w;
  w.name = "random" + std::to_string(seed);
  w.program = std::make_unique<datalog::Program>();
  datalog::Dsl dsl(w.program.get());
  auto edge = dsl.Relation("Edge", 2);
  auto path = dsl.Relation("Path", 2);
  auto spread = dsl.Relation("Spread", 2);
  auto blocked = dsl.Relation("Blocked", 1);
  auto [x, y, z, d] = dsl.Vars<4>();

  path(x, y) <<= edge(x, y);
  path(x, z) <<= path(x, y) & edge(y, z);
  spread(x, d) <<= path(x, y) & !blocked(y) & dsl.Add(y, 100, d);
  w.output = path.id();
  w.relations["Path"] = path.id();
  w.relations["Spread"] = spread.id();

  const auto edges =
      analysis::GenerateSparseGraph(seed, 20 + seed % 17, 40 + seed % 23);
  for (const auto& e : edges) edge.Fact(e.first, e.second);
  for (uint64_t b = 0; b < 5; ++b) {
    blocked.Fact(static_cast<int64_t>((seed + b * 7) % 20));
  }
  return w;
}

/// Sorted model of every IDB relation, for whole-model comparison.
std::vector<std::vector<storage::Tuple>> ModelOf(const Workload& w,
                                                 core::Engine* engine) {
  std::vector<std::vector<storage::Tuple>> model;
  for (const auto& [name, id] : std::map<std::string, datalog::PredicateId>(
           w.relations.begin(), w.relations.end())) {
    model.push_back(engine->Results(id));
  }
  return model;
}

std::vector<std::vector<storage::Tuple>> RunWith(uint64_t seed,
                                                 const EngineConfig& config) {
  Workload w = MakeRandomWorkload(seed);
  core::Engine engine(w.program.get(), config);
  CARAC_CHECK_OK(engine.Prepare());
  CARAC_CHECK_OK(engine.Run());
  return ModelOf(w, &engine);
}

// ---- Cross-configuration equivalence (TEST_P sweep) ----

struct ConfigCase {
  BackendKind backend;
  Granularity granularity;
  bool async;
  CompileMode mode;
  bool indexes;
};

std::string CaseName(const ::testing::TestParamInfo<ConfigCase>& info) {
  const ConfigCase& c = info.param;
  std::string name = backends::BackendKindName(c.backend);
  name += "_";
  name += core::GranularityName(c.granularity);
  name += c.async ? "_async" : "_block";
  name += c.mode == CompileMode::kSnippet ? "_snippet" : "_full";
  name += c.indexes ? "_idx" : "_noidx";
  return name;
}

class BackendEquivalence : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(BackendEquivalence, MatchesInterpreterModel) {
  const ConfigCase& c = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    EngineConfig reference;
    reference.use_indexes = c.indexes;
    const auto expected = RunWith(seed, reference);

    EngineConfig jit;
    jit.mode = EvalMode::kJit;
    jit.use_indexes = c.indexes;
    jit.jit.backend = c.backend;
    jit.jit.granularity = c.granularity;
    jit.jit.async = c.async;
    jit.jit.mode = c.mode;
    EXPECT_EQ(RunWith(seed, jit), expected) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendEquivalence,
    ::testing::Values(
        // Lambda across granularities, both compile modes.
        ConfigCase{BackendKind::kLambda, Granularity::kProgram, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kLambda, Granularity::kDoWhile, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kLambda, Granularity::kUnionAll, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kLambda, Granularity::kUnion, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kLambda, Granularity::kSpj, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kLambda, Granularity::kUnionAll, false,
                   CompileMode::kSnippet, true},
        ConfigCase{BackendKind::kLambda, Granularity::kUnion, true,
                   CompileMode::kFull, true},
        // Bytecode.
        ConfigCase{BackendKind::kBytecode, Granularity::kProgram, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kBytecode, Granularity::kUnionAll, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kBytecode, Granularity::kUnion, false,
                   CompileMode::kSnippet, true},
        ConfigCase{BackendKind::kBytecode, Granularity::kSpj, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kBytecode, Granularity::kUnionAll, true,
                   CompileMode::kFull, true},
        // IRGenerator.
        ConfigCase{BackendKind::kIRGenerator, Granularity::kUnionAll, false,
                   CompileMode::kFull, true},
        ConfigCase{BackendKind::kIRGenerator, Granularity::kSpj, false,
                   CompileMode::kFull, true},
        // Unindexed variants.
        ConfigCase{BackendKind::kLambda, Granularity::kUnion, false,
                   CompileMode::kFull, false},
        ConfigCase{BackendKind::kBytecode, Granularity::kUnion, false,
                   CompileMode::kFull, false}),
    CaseName);

// ---- Join-order invariance ----

class OrderInvariance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderInvariance, WorkloadOrderFormulationsAgree) {
  const uint64_t seed = GetParam();
  analysis::CspaConfig cspa;
  cspa.seed = seed;
  cspa.total_tuples = 200;
  Workload a = analysis::MakeCspa(cspa, analysis::RuleOrder::kHandOptimized);
  Workload b = analysis::MakeCspa(cspa, analysis::RuleOrder::kUnoptimized);

  core::Engine ea(a.program.get(), EngineConfig{});
  core::Engine eb(b.program.get(), EngineConfig{});
  CARAC_CHECK_OK(ea.Prepare());
  CARAC_CHECK_OK(ea.Run());
  CARAC_CHECK_OK(eb.Prepare());
  CARAC_CHECK_OK(eb.Run());
  EXPECT_EQ(ea.Results(a.output), eb.Results(b.output));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderInvariance,
                         ::testing::Values(1, 7, 13, 99, 12345));

// ---- Semi-naive vs naive equivalence ----

TEST(SemiNaiveProperty, MatchesNaiveFixpointOnRandomGraphs) {
  for (uint64_t seed : {4u, 8u, 15u}) {
    // Naive reference: repeatedly apply rules from scratch by brute force.
    const auto edges = analysis::GenerateSparseGraph(seed, 15, 25);
    std::set<std::pair<int64_t, int64_t>> closure(edges.begin(), edges.end());
    for (;;) {
      const size_t before = closure.size();
      std::set<std::pair<int64_t, int64_t>> next = closure;
      for (const auto& [a, b] : closure) {
        for (const auto& [c, d] : edges) {
          if (b == c) next.emplace(a, d);
        }
      }
      closure = std::move(next);
      if (closure.size() == before) break;
    }

    Workload w = analysis::MakeTransitiveClosure(
        edges, analysis::RuleOrder::kHandOptimized);
    core::Engine engine(w.program.get(), EngineConfig{});
    CARAC_CHECK_OK(engine.Prepare());
    CARAC_CHECK_OK(engine.Run());
    EXPECT_EQ(engine.ResultSize(w.output), closure.size()) << "seed " << seed;
    for (const auto& [a, b] : closure) {
      EXPECT_TRUE(w.program->db()
                      .Get(w.output, storage::DbKind::kDerived)
                      .Contains({a, b}));
    }
  }
}

// ---- AOT planning never changes results ----

TEST(AotProperty, PlannedAndUnplannedModelsAgree) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    EngineConfig plain;
    EngineConfig planned;
    planned.aot_reorder = true;
    planned.aot.use_fact_cardinalities = (seed % 2) == 0;
    EXPECT_EQ(RunWith(seed, planned), RunWith(seed, plain));
  }
}

// ---- Open-addressing dedup table vs std::set reference model ----
//
// The arena Relation's set semantics live in a hand-rolled linear-probe
// table over util::HashSpan (power-of-two capacity, 3/4 load growth).
// Randomized insert/contains/reserve sequences must agree with a
// std::set model at every step; StagingBuffer shares the same design
// (and the parallel evaluator's dedup correctness), so it is driven by
// the same oracle.

TEST(HashTableProperty, RelationMatchesSetModel) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    const size_t arity = 1 + rng.NextBounded(3);
    storage::Relation rel("prop", arity);
    std::set<storage::Tuple> model;
    // A small domain makes duplicate inserts common; enough operations to
    // cross several power-of-two growth boundaries from kMinSlots up.
    for (int i = 0; i < 4000; ++i) {
      storage::Tuple t;
      for (size_t c = 0; c < arity; ++c) {
        t.push_back(static_cast<int64_t>(rng.NextBounded(40)) - 20);
      }
      switch (rng.NextBounded(5)) {
        case 0:
        case 1:
        case 2: {
          const bool was_new = model.insert(t).second;
          ASSERT_EQ(rel.Insert(t), was_new) << "seed " << seed;
          break;
        }
        case 3:
          ASSERT_EQ(rel.Contains(t), model.count(t) > 0) << "seed " << seed;
          break;
        case 4:
          // Reserve triggers an off-schedule rehash; contents must ride
          // through the re-bucketing pass untouched.
          rel.Reserve(rel.size() + rng.NextBounded(64));
          break;
      }
    }
    ASSERT_EQ(rel.size(), model.size()) << "seed " << seed;
    // Duplicate-insert idempotence over the whole model.
    for (const storage::Tuple& t : model) {
      ASSERT_FALSE(rel.Insert(t)) << "seed " << seed;
    }
    ASSERT_EQ(rel.size(), model.size()) << "seed " << seed;
    const std::vector<storage::Tuple> expected(model.begin(), model.end());
    ASSERT_EQ(rel.SortedRows(), expected) << "seed " << seed;
  }
}

TEST(HashTableProperty, GrowthBoundaryExact) {
  // The table grows when (rows + 1) * 4 > slots * 3: walk insert counts
  // across the first boundaries and check set semantics stays exact on
  // either side of each rehash.
  storage::Relation rel("boundary", 1);
  std::set<storage::Tuple> model;
  for (int64_t v = 0; v < 200; ++v) {
    ASSERT_TRUE(rel.Insert({v}));
    ASSERT_FALSE(rel.Insert({v}));  // Immediately re-probe post-growth.
    model.insert({v});
    for (int64_t probe = 0; probe <= v; ++probe) {
      ASSERT_TRUE(rel.Contains({probe})) << "after " << v;
    }
    ASSERT_FALSE(rel.Contains({v + 1}));
    ASSERT_EQ(rel.size(), model.size());
  }
}

TEST(HashTableProperty, StagingBufferMatchesSetModel) {
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    util::Rng rng(seed);
    const size_t arity = 1 + rng.NextBounded(3);
    storage::StagingBuffer buffer;
    buffer.Reset(arity);
    std::set<storage::Tuple> model;
    for (int i = 0; i < 3000; ++i) {
      storage::Tuple t;
      for (size_t c = 0; c < arity; ++c) {
        t.push_back(static_cast<int64_t>(rng.NextBounded(40)));
      }
      if (rng.NextBool(0.7)) {
        ASSERT_EQ(buffer.Insert(t), model.insert(t).second) << "seed "
                                                            << seed;
      } else {
        ASSERT_EQ(buffer.Contains(t), model.count(t) > 0) << "seed " << seed;
      }
    }
    ASSERT_EQ(buffer.NumRows(), model.size()) << "seed " << seed;
    // Staged rows keep insertion order; every staged row is in the model.
    for (uint32_t row = 0; row < buffer.NumRows(); ++row) {
      ASSERT_TRUE(model.count(buffer.View(row).ToTuple()) > 0);
    }
    // Reset re-arms without leaking previous contents.
    buffer.Reset(arity);
    ASSERT_TRUE(buffer.empty());
    for (const storage::Tuple& t : model) {
      ASSERT_FALSE(buffer.Contains(t));
    }
  }
}

// ---- Index oracle (storage/index.h, all three organizations) ----
//
// Every IndexKind must agree with a std::multimap<key, row> model under
// interleaved Add/Probe/ProbeRange/BatchProbe, with Stabilize() calls
// thrown in at random quiescent points (kLearned migrates tail rows into
// its immutable prefix there and refits its model; the others must treat
// it as a no-op).
// Rows enter in ascending RowId order, so for any key the model's
// equal_range — which preserves insertion order — IS the expected
// ascending-RowId probe result.

std::vector<storage::RowId> CursorRows(const storage::RowCursor& cursor) {
  std::vector<storage::RowId> rows;
  cursor.ForEach([&](storage::RowId row) { rows.push_back(row); });
  return rows;
}

TEST(IndexOracleProperty, EveryKindMatchesMultimapModel) {
  using storage::IndexKind;
  using storage::RowId;
  using storage::Value;
  for (IndexKind kind :
       {IndexKind::kHash, IndexKind::kBtree, IndexKind::kLearned}) {
    for (uint64_t seed = 41; seed <= 46; ++seed) {
      util::Rng rng(seed);
      std::unique_ptr<storage::IndexBase> index = storage::MakeIndex(0, kind);
      std::multimap<Value, RowId> model;
      RowId next_row = 0;
      auto model_probe = [&](Value key) {
        std::vector<RowId> rows;
        auto [lo, hi] = model.equal_range(key);
        for (auto it = lo; it != hi; ++it) rows.push_back(it->second);
        return rows;
      };
      // A narrow key domain makes shared keys (multi-row buckets) and
      // repeated batch keys common; enough inserts to push the B-tree
      // through several levels of splits.
      auto random_key = [&]() {
        return static_cast<Value>(rng.NextBounded(60)) - 30;
      };
      for (int i = 0; i < 3000; ++i) {
        switch (rng.NextBounded(8)) {
          case 0:
          case 1:
          case 2:
          case 3: {
            const Value key = random_key();
            index->Add(next_row, key);
            model.emplace(key, next_row);
            ++next_row;
            break;
          }
          case 4: {
            const Value key = random_key();
            ASSERT_EQ(CursorRows(index->Probe(key)), model_probe(key))
                << storage::IndexKindName(kind) << " seed " << seed;
            break;
          }
          case 5: {
            const Value lo = random_key();
            const Value hi = lo + static_cast<Value>(rng.NextBounded(12));
            std::vector<RowId> got;
            const util::Status status = index->ProbeRange(lo, hi, &got);
            if (kind == IndexKind::kHash) {
              ASSERT_EQ(status.code(),
                        util::StatusCode::kFailedPrecondition);
              break;
            }
            ASSERT_TRUE(status.ok());
            std::vector<RowId> want;
            for (auto it = model.lower_bound(lo);
                 it != model.end() && it->first <= hi; ++it) {
              want.push_back(it->second);
            }
            ASSERT_EQ(got, want) << storage::IndexKindName(kind) << " seed "
                                 << seed << " range [" << lo << ", " << hi
                                 << "]";
            break;
          }
          case 6: {
            Value keys[16];
            const size_t n = 1 + rng.NextBounded(16);
            for (size_t k = 0; k < n; ++k) {
              // Duplicate the previous key half the time: adjacent-equal
              // runs are the case BatchProbe elides lookups for.
              keys[k] = (k > 0 && rng.NextBool(0.5)) ? keys[k - 1]
                                                     : random_key();
            }
            storage::RowCursor cursors[16];
            index->BatchProbe(keys, n, cursors);
            for (size_t k = 0; k < n; ++k) {
              ASSERT_EQ(CursorRows(cursors[k]), model_probe(keys[k]))
                  << storage::IndexKindName(kind) << " seed " << seed
                  << " batch slot " << k;
            }
            break;
          }
          case 7:
            // A quiescent point: no cursors are live across this call.
            index->Stabilize(next_row == 0
                                 ? 0
                                 : static_cast<RowId>(
                                       rng.NextBounded(next_row + 1)));
            break;
        }
      }
      // Full final sweep over the key domain.
      index->Stabilize(next_row);
      for (Value key = -31; key <= 31; ++key) {
        ASSERT_EQ(CursorRows(index->Probe(key)), model_probe(key))
            << storage::IndexKindName(kind) << " seed " << seed;
      }
    }
  }
}

TEST(IndexOracleProperty, MidStreamRekindingMatchesMultimapModel) {
  // Self-tuning indexes re-kind columns between epochs. The oracle:
  // random RedeclareIndex calls interleaved with inserts, watermark
  // advances and every probe flavour must be invisible to results — the
  // rebuilt index answers exactly like the multimap model, whatever
  // sequence of organizations the column has been through.
  using storage::DbKind;
  using storage::IndexKind;
  using storage::RowId;
  using storage::Value;
  constexpr IndexKind kKinds[] = {IndexKind::kHash, IndexKind::kBtree,
                                  IndexKind::kLearned};
  for (uint64_t seed = 71; seed <= 76; ++seed) {
    util::Rng rng(seed);
    storage::Relation rel("R", 2);
    rel.DeclareIndex(0, kKinds[seed % 3]);
    std::multimap<Value, RowId> model;
    RowId next_row = 0;
    auto model_probe = [&](Value key) {
      std::vector<RowId> rows;
      auto [lo, hi] = model.equal_range(key);
      for (auto it = lo; it != hi; ++it) rows.push_back(it->second);
      return rows;
    };
    auto random_key = [&]() {
      return static_cast<Value>(rng.NextBounded(50)) - 25;
    };
    for (int i = 0; i < 2500; ++i) {
      switch (rng.NextBounded(8)) {
        case 0:
        case 1:
        case 2: {
          const Value key = random_key();
          rel.Insert({key, static_cast<Value>(i)});
          model.emplace(key, next_row);
          ++next_row;
          break;
        }
        case 3: {
          const Value key = random_key();
          ASSERT_EQ(CursorRows(rel.Probe(0, key)), model_probe(key))
              << "seed " << seed << " op " << i;
          break;
        }
        case 4: {
          const Value lo = random_key();
          const Value hi = lo + static_cast<Value>(rng.NextBounded(9));
          std::vector<RowId> got;
          const util::Status status = rel.ProbeRange(0, lo, hi, &got);
          if (rel.IndexKindOf(0) == IndexKind::kHash) {
            ASSERT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
            break;
          }
          ASSERT_TRUE(status.ok());
          std::vector<RowId> want;
          for (auto it = model.lower_bound(lo);
               it != model.end() && it->first <= hi; ++it) {
            want.push_back(it->second);
          }
          ASSERT_EQ(got, want) << "seed " << seed << " range [" << lo
                               << ", " << hi << "]";
          break;
        }
        case 5: {
          Value keys[12];
          const size_t n = 1 + rng.NextBounded(12);
          for (size_t k = 0; k < n; ++k) {
            keys[k] =
                (k > 0 && rng.NextBool(0.5)) ? keys[k - 1] : random_key();
          }
          storage::RowCursor cursors[12];
          rel.BatchProbe(0, keys, n, cursors);
          for (size_t k = 0; k < n; ++k) {
            ASSERT_EQ(CursorRows(cursors[k]), model_probe(keys[k]))
                << "seed " << seed << " batch slot " << k;
          }
          break;
        }
        case 6:
          // Epoch close: watermark advance stabilizes every index.
          rel.AdvanceWatermark();
          break;
        case 7:
          // The adaptive policy's move, at a random quiescent point —
          // possibly a no-op re-kind to the current organization.
          rel.RedeclareIndex(0, kKinds[rng.NextBounded(3)]);
          break;
      }
    }
    rel.AdvanceWatermark();
    for (Value key = -26; key <= 26; ++key) {
      ASSERT_EQ(CursorRows(rel.Probe(0, key)), model_probe(key))
          << "seed " << seed << " final sweep";
    }
  }
}

TEST(IndexOracleProperty, GrowthBoundaryWalkEveryKind) {
  // Dense sequential inserts walk the B-tree across every node-split
  // boundary (fanout 32) and the learned prefix across repeated
  // stabilize-merge cycles; after every insert the freshly crossed
  // state must still answer exact point probes for all earlier keys.
  using storage::IndexKind;
  using storage::RowId;
  for (IndexKind kind :
       {IndexKind::kHash, IndexKind::kBtree, IndexKind::kLearned}) {
    std::unique_ptr<storage::IndexBase> index = storage::MakeIndex(0, kind);
    for (RowId row = 0; row < 400; ++row) {
      index->Add(row, static_cast<storage::Value>(row));
      if (row % 64 == 63) index->Stabilize(row / 2);
      // Probe a stride of earlier keys plus the just-inserted one.
      for (RowId probe = row % 7; probe <= row; probe += 7) {
        const std::vector<RowId> rows =
            CursorRows(index->Probe(static_cast<storage::Value>(probe)));
        ASSERT_EQ(rows, std::vector<RowId>{probe})
            << storage::IndexKindName(kind) << " after row " << row;
      }
      ASSERT_TRUE(
          index->Probe(static_cast<storage::Value>(row) + 1).empty());
    }
  }
}

}  // namespace
}  // namespace carac
