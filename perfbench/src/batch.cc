// The two batch workloads: jit-recovery and analysis-parallel.
//
// A cell is one (program, rule order, configuration) combination. Each
// pass builds every cell afresh from the seed-derived inputs (factgen +
// Prepare = set-up), runs it to fixpoint (Engine::Run = fixpoint), checks
// its output relation against the reference, and frees it. Within a pass
// the cells run back to back, in an order rotated by one each pass, so a
// shift in host speed hits every cell alike.
#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <iostream>
#include <memory>

#include "analysis/programs.h"
#include "backends/backend.h"
#include "core/engine.h"
#include "ir/irop.h"
#include "optimizer/join_order.h"
#include "optimizer/statistics.h"
#include "storage/symbol_table.h"

namespace perfbench {
namespace {

using carac::analysis::RuleOrder;
using carac::analysis::Workload;
namespace core = carac::core;
namespace backends = carac::backends;

enum class Input { kCspa, kAndersen, kInvFuns, kCsda };

struct Cell {
  std::string name;
  Input input;
  int64_t size;  // CSPA tuples, SListLib scale, or CSDA chain length
  RuleOrder order;
  core::EngineConfig config;
};

/// Key of the cell's input (and so of its reference output): the program
/// and its size, independent of rule order and configuration.
std::string InputKey(const Cell& cell) {
  static const char* const kNames[] = {"cspa", "andersen", "invfuns", "csda"};
  return std::string(kNames[static_cast<int>(cell.input)]) +
         std::to_string(cell.size);
}

/// Renames every integer value of the workload's input (EDB) relations
/// through a seed-drawn permutation and re-inserts the facts in a
/// seed-drawn order. The rules hold no integer constants, so the relabelled
/// program does the same work on different values.
///
/// CSPA's and CSDA's cost swings with their random graphs: over twelve
/// generator seeds, CSPA at 400 tuples took 0.27-1.19 s (hand-optimized,
/// interpreted) with output sizes within 8%, and CSDA's output varied by
/// 4%. So those two inputs are one fixed graph each (the generator's
/// default seed), relabelled per workload seed: the work repeats while
/// every value and insertion order the engine sees still comes from the
/// seed. SListLib inputs (Andersen, InvFuns) are generated from the seed
/// directly; their shape does not depend on it.
void Relabel(Workload* w, uint64_t seed) {
  namespace storage = carac::storage;
  storage::DatabaseSet& db = w->program->db();
  std::vector<std::pair<carac::datalog::PredicateId, std::vector<storage::Tuple>>>
      facts;
  std::vector<storage::Value> values;
  std::vector<carac::datalog::PredicateId> inputs;
  for (const auto& [name, id] : w->relations) {
    if (!w->program->IsIdb(id)) inputs.push_back(id);
  }
  std::sort(inputs.begin(), inputs.end());  // a fixed order of draws
  for (const carac::datalog::PredicateId id : inputs) {
    storage::Relation& rel = db.Get(id, storage::DbKind::kDerived);
    const storage::RelationReadView rows =
        rel.PinView(static_cast<storage::RowId>(rel.size()));
    std::vector<storage::Tuple> tuples;
    for (uint32_t r = 0; r < rows.NumRows(); ++r) {
      const storage::TupleView t = rows.View(r);
      tuples.emplace_back(t.begin(), t.end());
      for (const storage::Value v : t) {
        if (!storage::SymbolTable::IsSymbol(v)) values.push_back(v);
      }
    }
    facts.emplace_back(id, std::move(tuples));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<storage::Value> renamed = values;
  uint64_t state = seed;
  auto below = [&state](size_t n) {
    return static_cast<size_t>(Mix(state++, 0xC5BA) % n);
  };
  for (size_t i = renamed.size(); i > 1; --i) std::swap(renamed[i - 1], renamed[below(i)]);
  for (auto& [id, tuples] : facts) {
    for (storage::Tuple& t : tuples) {
      for (storage::Value& v : t) {
        if (storage::SymbolTable::IsSymbol(v)) continue;
        v = renamed[static_cast<size_t>(
            std::lower_bound(values.begin(), values.end(), v) - values.begin())];
      }
    }
    for (size_t i = tuples.size(); i > 1; --i) std::swap(tuples[i - 1], tuples[below(i)]);
    db.ClearFacts(id);
    for (storage::Tuple& t : tuples) w->program->AddFact(id, std::move(t));
  }
}

Workload MakeInput(const Cell& cell, uint64_t seed, RuleOrder order) {
  const uint64_t s = Mix(seed, static_cast<uint64_t>(cell.input) + 1);
  switch (cell.input) {
    case Input::kCspa: {
      carac::analysis::CspaConfig c;  // default generator seed, see Relabel
      c.total_tuples = cell.size;
      Workload w = carac::analysis::MakeCspa(c, order);
      Relabel(&w, s);
      return w;
    }
    case Input::kAndersen:
    case Input::kInvFuns: {
      carac::analysis::SListConfig c;
      c.seed = s;
      c.scale = cell.size;
      return cell.input == Input::kAndersen
                 ? carac::analysis::MakeAndersen(c, order)
                 : carac::analysis::MakeInverseFunctions(c, order);
    }
    case Input::kCsda: {
      carac::analysis::CsdaConfig c;  // default generator seed, see Relabel
      c.length = cell.size;
      Workload w = carac::analysis::MakeCsda(c);
      Relabel(&w, s);
      return w;
    }
  }
  return {};
}

core::EngineConfig JitConfig(backends::BackendKind backend) {
  core::EngineConfig c;
  c.mode = core::EvalMode::kJit;
  c.jit.backend = backend;
  c.jit.granularity = core::Granularity::kUnion;
  c.jit.async = false;  // blocking compile: the JIT's choices repeat exactly
  c.num_threads = 1;
  return c;
}

core::EngineConfig ParallelConfig(carac::ir::EngineStyle style) {
  core::EngineConfig c;
  c.mode = core::EvalMode::kInterpreted;
  c.engine_style = style;
  c.num_threads = kEvalThreads;
  return c;
}

std::vector<Cell> CellsFor(const std::string& workload) {
  if (workload == "jit-recovery") {
    return {
        {"cspa-unopt-lambda", Input::kCspa, 400, RuleOrder::kUnoptimized,
         JitConfig(backends::BackendKind::kLambda)},
        {"andersen-unopt-bytecode", Input::kAndersen, 6,
         RuleOrder::kUnoptimized, JitConfig(backends::BackendKind::kBytecode)},
        {"invfuns-unopt-irgen", Input::kInvFuns, 6, RuleOrder::kUnoptimized,
         JitConfig(backends::BackendKind::kIRGenerator)},
    };
  }
  return {
      {"cspa-hand-push", Input::kCspa, 400, RuleOrder::kHandOptimized,
       ParallelConfig(carac::ir::EngineStyle::kPush)},
      {"andersen-hand-push", Input::kAndersen, 8, RuleOrder::kHandOptimized,
       ParallelConfig(carac::ir::EngineStyle::kPush)},
      {"csda-hand-pull", Input::kCsda, 6000, RuleOrder::kHandOptimized,
       ParallelConfig(carac::ir::EngineStyle::kPull)},
  };
}

Digest DigestOutput(Workload& w) {
  carac::storage::Relation& rel =
      w.program->db().Get(w.output, carac::storage::DbKind::kDerived);
  return DigestRows(rel.PinView(static_cast<carac::storage::RowId>(rel.size())));
}

/// Set-ups per cell and pass (see RunCell).
constexpr int kSetupRepeats = 5;

/// The single-thread, interpreted, hand-optimized evaluation (no JIT, no
/// sharding) every cell's output is checked against.
struct Reference {
  Workload workload;
  std::unique_ptr<core::Engine> engine;
  Digest digest;
};

/// What one cell did in one pass.
struct CellRun {
  double factgen_s = 0;
  double prepare_s = 0;
  double run_s = 0;
  carac::ir::ExecStats stats;
  carac::ir::ColumnProbeStats probes;
  Digest digest;
  bool ok = false;
};

/// Builds, prepares and runs one cell; out->ok is false when the engine
/// refused, and out->digest holds its output for the later check.
void RunCell(const Cell& cell, const Options& options,
             const core::EngineConfig& config, Tracer* tracer, CellRun* out) {
  ScopedSpan cell_span(tracer, "cell " + cell.name, "core");
  // Set-up takes milliseconds, so it is repeated and its median kept; the
  // last set-up is the one that runs.
  std::vector<double> factgen_s, prepare_s;
  Workload w;
  std::unique_ptr<core::Engine> engine;
  bool ok = true;
  for (int rep = 0; rep < kSetupRepeats && ok; ++rep) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "analysis::Make " + InputKey(cell), "analysis");
      w = MakeInput(cell, options.seed, cell.order);
    }
    const Clock::time_point t1 = Clock::now();
    engine = std::make_unique<core::Engine>(w.program.get(), config);
    {
      ScopedSpan span(tracer, "core::Engine::Prepare", "core");
      ok = Ok(engine->Prepare(), cell.name + " Prepare");
    }
    const Clock::time_point t2 = Clock::now();
    factgen_s.push_back(Seconds(t0, t1));
    prepare_s.push_back(Seconds(t1, t2));
  }
  const Clock::time_point t2 = Clock::now();
  if (ok) {
    ScopedSpan span(tracer, "core::Engine::Run", "core");
    ok = Ok(engine->Run(), cell.name + " Run");
  }
  const Clock::time_point t3 = Clock::now();
  out->factgen_s = Median(factgen_s);
  out->prepare_s = Median(prepare_s);
  out->run_s = Seconds(t2, t3);
  out->stats = engine->stats();
  out->probes = {};
  for (const auto& [key, probes] : engine->profiler().counters()) {
    out->probes.MergeFrom(probes);
  }
  if (ok && options.corrupt) {
    // One wrong derived fact, as a faulty evaluator would leave behind.
    const size_t arity = w.program->PredicateArity(w.output);
    ok = Ok(engine->AddFacts(w.output,
                            {carac::storage::Tuple(arity, -987654321)}),
            "corrupt");
  }
  if (ok) {
    ScopedSpan span(tracer, "storage::Relation::PinView digest", "storage");
    out->digest = DigestOutput(w);
  }
  out->ok = ok;
}

/// Counts one cell evaluation, failed unless it matched the reference.
void CheckCell(const Cell& cell, const CellRun& r, const Digest& expected,
               Report* report) {
  report->Check(r.ok && r.digest == expected,
                cell.name + ": output " + std::to_string(r.digest.rows) +
                    " rows/hash " + std::to_string(r.digest.hash) +
                    ", reference " + std::to_string(expected.rows) + "/" +
                    std::to_string(expected.hash));
}

/// Union-granularity units of a lowered tree (the JIT's compile units at
/// the granularity every jit-recovery cell uses).
void CollectUnits(const carac::ir::IROp& op,
                  std::vector<const carac::ir::IROp*>* out) {
  if (op.kind == carac::ir::OpKind::kUnion) out->push_back(&op);
  for (const auto& child : op.children) CollectUnits(*child, out);
}

bool SameRelations(const carac::datalog::Program& a,
                   const carac::datalog::Program& b) {
  if (a.NumPredicates() != b.NumPredicates()) return false;
  for (size_t p = 0; p < a.NumPredicates(); ++p) {
    if (a.PredicateName(static_cast<carac::datalog::PredicateId>(p)) !=
        b.PredicateName(static_cast<carac::datalog::PredicateId>(p))) {
      return false;
    }
  }
  return true;
}

/// jit-recovery's outside-in optimizer and backend measurements: the
/// optimizer's ReorderSubtree and every backend's Compile, called on the
/// cell's unoptimized lowered tree with the statistics of its evaluated
/// fixpoint (the reference engine's database: same facts, same result).
void MeasureJitLayers(const std::vector<Cell>& cells,
                      const std::vector<Reference>& refs,
                      const std::map<std::string, size_t>& ref_of,
                      const std::vector<std::vector<CellRun>>& runs,
                      const Options& options, Tracer* tracer,
                      Report* report) {
  const std::pair<backends::BackendKind, const char*> kBackends[] = {
      {backends::BackendKind::kLambda, "lambda"},
      {backends::BackendKind::kBytecode, "bytecode"},
      {backends::BackendKind::kIRGenerator, "irgen"}};
  std::map<std::string, std::vector<double>> compile_us;
  std::vector<double> reorder_us;
  double reordered_nodes = 0;
  double blocking_compile_s = 0;
  double run_s = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const Reference& ref = refs[ref_of.at(InputKey(cell))];
    Workload w = MakeInput(cell, options.seed, cell.order);
    core::Engine lowered(w.program.get(), core::EngineConfig{});
    if (!Ok(lowered.Prepare(), cell.name + " Prepare (layers)")) continue;
    if (!SameRelations(*ref.workload.program, *w.program)) {
      report->MarkIncorrect(cell.name + ": reference declares other relations");
      continue;
    }
    const carac::optimizer::StatsSnapshot stats =
        carac::optimizer::StatsSnapshot::Capture(ref.workload.program->db());
    const carac::optimizer::JoinOrderConfig join_config =
        cell.config.jit.join_config;
    for (int rep = 0; rep < 5; ++rep) {
      std::unique_ptr<carac::ir::IROp> tree = lowered.ir().root->Clone();
      ScopedSpan span(tracer, "optimizer::ReorderSubtree", "optimizer");
      const Clock::time_point t0 = Clock::now();
      const int changed =
          carac::optimizer::ReorderSubtree(stats, join_config, tree.get());
      reorder_us.push_back(Seconds(t0, Clock::now()) * 1e6);
      if (rep == 0) reordered_nodes += changed;
    }
    std::vector<const carac::ir::IROp*> units;
    CollectUnits(*lowered.ir().root, &units);
    std::vector<double> own_backend_us;
    for (const auto& [kind, name] : kBackends) {
      std::unique_ptr<backends::Backend> backend = backends::MakeBackend(kind);
      for (const carac::ir::IROp* unit : units) {
        backends::CompileRequest request;
        request.subtree = unit->Clone();
        request.stats = stats;
        request.join_config = join_config;
        request.mode = backends::CompileMode::kFull;
        request.reorder = true;
        std::unique_ptr<backends::CompiledUnit> compiled;
        ScopedSpan span(tracer, std::string("backends::Compile ") + name,
                        "backends");
        const Clock::time_point t0 = Clock::now();
        const bool ok = backend->Compile(std::move(request), &compiled).ok();
        const double us = Seconds(t0, Clock::now()) * 1e6;
        if (!ok) continue;
        compile_us[name].push_back(us);
        if (kind == cell.config.jit.backend) own_backend_us.push_back(us);
      }
    }
    std::vector<double> cell_run_s;
    for (const CellRun& r : runs[c]) cell_run_s.push_back(r.run_s);
    const double compilations =
        runs[c].empty() ? 0 : static_cast<double>(runs[c].back().stats.compilations);
    blocking_compile_s += Median(own_backend_us) * 1e-6 * compilations;
    run_s += Median(cell_run_s);
  }
  for (const auto& [kind, name] : kBackends) {
    report->Set(std::string("backends.compile_us.") + name,
                Median(compile_us[name]), "us");
  }
  report->Set("optimizer.reorder_us", Median(reorder_us), "us");
  report->Set("optimizer.reordered_nodes", reordered_nodes, "count");
  report->Set("core.jit_overhead_share", run_s > 0 ? blocking_compile_s / run_s : 0,
              "ratio");
}

}  // namespace

void RunBatch(const Options& options, Report* report) {
  const std::vector<Cell> cells = CellsFor(options.workload);
  std::unique_ptr<Tracer> tracer_store;
  if (options.trace) tracer_store = std::make_unique<Tracer>();
  Tracer* const tracer = tracer_store.get();
  const std::map<std::string, uint64_t> expected = LoadExpectedCounts(options);

  // Timed passes, until the measuring time is used up (at least 3).
  std::vector<std::vector<CellRun>> runs(cells.size());
  std::vector<double> setup_samples, fixpoint_samples, factgen_samples;
  std::vector<double> traced_fixpoint, untraced_fixpoint;
  const Clock::time_point start = Clock::now();
  std::vector<double> pass_s;
  for (size_t pass = 0;; ++pass) {
    const double elapsed = Seconds(start, Clock::now());
    if (pass >= kMinPasses &&
        elapsed + Median(pass_s) > static_cast<double>(options.seconds)) {
      break;
    }
    // Traced runs alternate traced and untraced passes; the difference is
    // the tracing overhead.
    Tracer* pass_tracer = (tracer != nullptr && pass % 2 == 0) ? tracer : nullptr;
    double setup = 0, fixpoint = 0, factgen = 0;
    const Clock::time_point pass_start = Clock::now();
    for (size_t k = 0; k < cells.size(); ++k) {
      const size_t c = (pass + k) % cells.size();
      CellRun r;
      RunCell(cells[c], options, cells[c].config, pass_tracer, &r);
      setup += r.factgen_s + r.prepare_s;
      fixpoint += r.run_s;
      factgen += r.factgen_s;
      runs[c].push_back(r);
      // Hand freed arenas back, so peak RSS is the largest cell's and not
      // an accident of what the allocator kept from earlier ones.
      malloc_trim(0);
    }
    pass_s.push_back(Seconds(pass_start, Clock::now()));
    setup_samples.push_back(setup);
    fixpoint_samples.push_back(fixpoint);
    factgen_samples.push_back(factgen * 1e3);
    (pass_tracer != nullptr ? traced_fixpoint : untraced_fixpoint)
        .push_back(fixpoint);
  }
  const double peak_rss_mb = PeakRssMb();
  // References, once per run, after the timed passes (so they do not
  // count towards peak RSS); every cell evaluation is checked against them.
  std::vector<Reference> refs;
  std::map<std::string, size_t> ref_of;
  for (const Cell& cell : cells) {
    const std::string key = InputKey(cell);
    if (ref_of.count(key) != 0) continue;
    Reference ref;
    ref.workload = MakeInput(cell, options.seed, RuleOrder::kHandOptimized);
    ref.engine = std::make_unique<core::Engine>(ref.workload.program.get(),
                                                core::EngineConfig{});
    const bool ok = Ok(ref.engine->Prepare(), key + " reference Prepare") &&
                    Ok(ref.engine->Run(), key + " reference Run");
    if (!ok) report->MarkIncorrect("reference evaluation of " + key + " failed");
    ref.digest = DigestOutput(ref.workload);
    const auto it = expected.find(key);
    if (it != expected.end()) {
      report->Check(ref.digest.rows == it->second,
                    key + ": reference has " + std::to_string(ref.digest.rows) +
                        " rows, committed expectation " +
                        std::to_string(it->second));
    }
    std::cerr << "perfbench: reference " << key << " = " << ref.digest.rows
              << " rows\n";
    const bool keep = options.trace && options.workload == "jit-recovery";
    if (!keep) ref.engine.reset(), ref.workload = {};
    ref_of[key] = refs.size();
    refs.push_back(std::move(ref));
  }

  for (size_t c = 0; c < cells.size(); ++c) {
    for (const CellRun& r : runs[c]) {
      CheckCell(cells[c], r, refs[ref_of[InputKey(cells[c])]].digest, report);
    }
  }
  std::cerr << "perfbench: " << options.workload << " " << pass_s.size()
            << " passes; median run_s per cell:";
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> run_s;
    for (const CellRun& r : runs[c]) run_s.push_back(r.run_s);
    std::cerr << " " << cells[c].name << "=" << Median(run_s);
  }
  std::cerr << "\nperfbench: fixpoint_s per pass:";
  for (double f : fixpoint_samples) std::cerr << " " << f;
  std::cerr << "\n";

  if (!options.trace) {
    report->Set("setup_s", Median(setup_samples), "s");
    report->Set("fixpoint_s", Median(fixpoint_samples), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // ---- Per-layer metrics (traced run) ----
  report->Set("analysis.factgen_ms", Median(factgen_samples), "ms");
  carac::ir::ExecStats total;
  carac::ir::ColumnProbeStats probes;
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> prepare_ms, run_s;
    for (const CellRun& r : runs[c]) {
      prepare_ms.push_back(r.prepare_s * 1e3);
      run_s.push_back(r.run_s);
    }
    report->Set("core.prepare_ms." + cells[c].name, Median(prepare_ms), "ms");
    report->Set("core.run_s." + cells[c].name, Median(run_s), "s");
    const carac::ir::ExecStats& s = runs[c].back().stats;
    total.iterations += s.iterations;
    total.spj_executions += s.spj_executions;
    total.tuples_inserted += s.tuples_inserted;
    total.tuples_considered += s.tuples_considered;
    total.compilations += s.compilations;
    total.compiled_invocations += s.compiled_invocations;
    total.freshness_skips += s.freshness_skips;
    probes.MergeFrom(runs[c].back().probes);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Set("ir.iterations", static_cast<double>(total.iterations), "count");
  report->Set("ir.spj_executions", static_cast<double>(total.spj_executions),
              "count");
  report->Set("ir.tuples_considered",
              static_cast<double>(total.tuples_considered), "count");
  report->Set("ir.dedup_yield",
              ratio(static_cast<double>(total.tuples_inserted),
                    static_cast<double>(total.tuples_considered)),
              "ratio");
  report->Set("backends.compilations", static_cast<double>(total.compilations),
              "count");
  report->Set("backends.compiled_share",
              ratio(static_cast<double>(total.compiled_invocations),
                    static_cast<double>(total.compiled_invocations +
                                        total.spj_executions)),
              "ratio");
  report->Set("optimizer.freshness_skip_ratio",
              ratio(static_cast<double>(total.freshness_skips),
                    static_cast<double>(total.freshness_skips +
                                        total.compilations)),
              "ratio");
  report->Set("storage.point_probes", static_cast<double>(probes.point_probes),
              "count");
  report->Set("storage.point_hit_ratio",
              ratio(static_cast<double>(probes.point_hits),
                    static_cast<double>(probes.point_probes)),
              "ratio");
  report->Set("storage.batch_windows", static_cast<double>(probes.batch_windows),
              "count");
  const double untraced = Median(untraced_fixpoint);
  report->Set("trace.overhead_share",
              ratio(Median(traced_fixpoint) - untraced, untraced), "ratio");

  if (options.workload == "jit-recovery") {
    ScopedSpan span(tracer, "jit layer probes", "core");
    MeasureJitLayers(cells, refs, ref_of, runs, options, tracer, report);
  } else {
    // One single-thread pass gives each cell's parallel speedup.
    for (size_t c = 0; c < cells.size(); ++c) {
      core::EngineConfig one = cells[c].config;
      one.num_threads = 1;
      CellRun r;
      RunCell(cells[c], options, one, tracer, &r);
      CheckCell(cells[c], r, refs[ref_of[InputKey(cells[c])]].digest, report);
      std::vector<double> run_s;
      for (const CellRun& p : runs[c]) run_s.push_back(p.run_s);
      report->Set("core.parallel_speedup." + cells[c].name,
                  ratio(r.run_s, Median(run_s)), "x");
    }
  }
  FinishTrace(*tracer, options, report);
}

}  // namespace perfbench
