// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--corrupt 0|1] [--rate R] [--out DIR] [--expected FILE]
//
// Workloads: jit-recovery, analysis-parallel, serve-incremental (see
// perfbench/README.md for why each exists and what it measures). Prints
// one JSON object as the last line of standard output:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, every name in kPerLayer (0 where the workload does not
// exercise that layer).
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

using perfbench::Options;

struct MetricName {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, in BENCHMARK.json's order.
const MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"fixpoint_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, in BENCHMARK.json's order.
const MetricName kPerLayer[] = {
    {"analysis.factgen_ms", "ms"},
    {"core.prepare_ms.cspa-unopt-lambda", "ms"},
    {"core.prepare_ms.andersen-unopt-bytecode", "ms"},
    {"core.prepare_ms.invfuns-unopt-irgen", "ms"},
    {"core.prepare_ms.cspa-hand-push", "ms"},
    {"core.prepare_ms.andersen-hand-push", "ms"},
    {"core.prepare_ms.csda-hand-pull", "ms"},
    {"core.run_s.cspa-unopt-lambda", "s"},
    {"core.run_s.andersen-unopt-bytecode", "s"},
    {"core.run_s.invfuns-unopt-irgen", "s"},
    {"core.run_s.cspa-hand-push", "s"},
    {"core.run_s.andersen-hand-push", "s"},
    {"core.run_s.csda-hand-pull", "s"},
    {"core.parallel_speedup.cspa-hand-push", "x"},
    {"core.parallel_speedup.andersen-hand-push", "x"},
    {"core.parallel_speedup.csda-hand-pull", "x"},
    {"core.jit_overhead_share", "ratio"},
    {"ir.iterations", "count"},
    {"ir.spj_executions", "count"},
    {"ir.tuples_considered", "count"},
    {"ir.dedup_yield", "ratio"},
    {"backends.compilations", "count"},
    {"backends.compiled_share", "ratio"},
    {"backends.compile_us.lambda", "us"},
    {"backends.compile_us.bytecode", "us"},
    {"backends.compile_us.irgen", "us"},
    {"optimizer.freshness_skip_ratio", "ratio"},
    {"optimizer.reorder_us", "us"},
    {"optimizer.reordered_nodes", "count"},
    {"storage.point_probes", "count"},
    {"storage.point_hit_ratio", "ratio"},
    {"storage.batch_windows", "count"},
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"recover_s", "s"},
    {"net.rtt_us.count", "us"},
    {"net.rtt_us.dump", "us"},
    {"net.rtt_us.load", "us"},
    {"net.rtt_us.update", "us"},
    {"net.overhead_us.read", "us"},
    {"net.overhead_us.write", "us"},
    {"net.generator_lag_ms", "ms"},
    {"core.add_facts_ms", "ms"},
    {"core.update_ms_p50", "ms"},
    {"core.update_ms_p99", "ms"},
    {"core.pin_read_view_us", "us"},
    {"core.checkpoint_ms", "ms"},
    {"core.strata_incremental", "count"},
    {"core.strata_recomputed", "count"},
    {"core.strata_skipped", "count"},
    {"core.seeded_rows", "count"},
    {"core.restore_s", "s"},
    {"core.epochs_replayed", "count"},
    {"storage.range_share", "ratio"},
    {"storage.factlog_bytes_per_fact", "B"},
    {"storage.snapshot_mb", "MB"},
    {"optimizer.rekinds", "count"},
    {"analysis.self_s", "s"},
    {"datalog.self_s", "s"},
    {"ir.self_s", "s"},
    {"optimizer.self_s", "s"},
    {"backends.self_s", "s"},
    {"core.self_s", "s"},
    {"storage.self_s", "s"},
    {"net.self_s", "s"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
};

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload jit-recovery|analysis-parallel|"
               "serve-incremental --seed N --seconds S --trace 0|1 "
               "[--corrupt 0|1] [--rate R] [--out DIR] [--expected FILE]\n";
  return 2;
}

bool ParseFlag(const std::string& value, bool* out) {
  if (value != "0" && value != "1") return false;
  *out = value == "1";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || s < 1 || s > 600) {
        return Usage("bad --seconds " + value);
      }
      options.seconds = static_cast<int>(s);
    } else if (arg == "--trace") {
      if (!ParseFlag(value, &options.trace)) return Usage("bad --trace");
    } else if (arg == "--corrupt") {
      if (!ParseFlag(value, &options.corrupt)) return Usage("bad --corrupt");
    } else if (arg == "--rate") {
      options.rate = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.rate > 0)) {
        return Usage("bad --rate " + value);
      }
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--expected") {
      options.expected_file = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }

  // Every metric is present even when a run fails part-way (it then
  // reports correct: false).
  perfbench::Report report;
  if (options.trace) {
    for (const MetricName& m : kPerLayer) report.Set(m.name, 0, m.unit);
  } else {
    for (const MetricName& m : kEndToEnd) report.Set(m.name, 0, m.unit);
  }
  if (options.workload == "jit-recovery" ||
      options.workload == "analysis-parallel") {
    perfbench::RunBatch(options, &report);
  } else if (options.workload == "serve-incremental") {
    perfbench::RunServe(options, &report);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  std::cerr << "perfbench: " << report.failed() << " of " << report.attempted()
            << " checked operations failed\n";
  std::cout << report.ToJson() << std::endl;
  return 0;
}
