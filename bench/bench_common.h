#ifndef CARAC_BENCH_BENCH_COMMON_H_
#define CARAC_BENCH_BENCH_COMMON_H_

// Shared workload sizing for the paper-reproduction benches. The paper's
// datasets (httpd: 1.5M facts) are scaled down so every bench binary
// finishes in seconds-to-minutes on a laptop; the *shape* of each result
// (who wins, rough factors, crossovers) is what EXPERIMENTS.md compares.
// CARAC_BENCH_SCALE=large restores bigger inputs.

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/programs.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "util/parse.h"

namespace carac::bench {

inline bool LargeScale() {
  const char* scale = std::getenv("CARAC_BENCH_SCALE");
  return scale != nullptr && std::string(scale) == "large";
}

/// The bench mains' flags: `--threads N` (evaluation threads for the
/// Carac engine configurations; 1 = the single-threaded runs every
/// earlier BENCH_*.json was recorded with; the storage-level index and
/// adaptive micros are single-threaded and ignore it) and, in the
/// benches that have one, `--micro` (a sub-second slice for the CI
/// bench-smoke job).
struct Args {
  int threads = 1;
  bool micro = false;
};

/// Parses the bench flags. Exits 2 with a usage line on anything else
/// (`--micro` included where `has_micro` is false) so
/// scripts/run_benches.sh surfaces the mistake.
inline Args ParseArgs(int argc, char** argv, bool has_micro) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (has_micro && arg == "--micro") {
      args.micro = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      int64_t threads = 0;
      ++i;
      if (!util::ParseInt64(argv[i], &threads) || threads < 1 ||
          threads > 256) {
        std::fprintf(stderr,
                     "error: --threads wants an integer in [1, 256], got "
                     "\"%s\"\n",
                     argv[i]);
        std::exit(2);
      }
      args.threads = static_cast<int>(threads);
    } else {
      std::fprintf(stderr, "usage: %s%s [--threads N]\n", argv[0],
                   has_micro ? " [--micro]" : "");
      std::exit(2);
    }
  }
  return args;
}

/// One `key=value` field of a RECORD line. Integers print exactly;
/// floating point prints to six significant digits and always carries a
/// '.' or an exponent, so a reader can tell a size from a measurement.
/// Whitespace and '=' in a string value become '-' (an empty one is
/// "-"), so every value is one token.
class RecordField {
 public:
  RecordField(const char* key, std::string value) : text_(key) {
    if (value.empty()) value = "-";
    for (char& c : value) {
      if (std::isspace(static_cast<unsigned char>(c)) || c == '=') c = '-';
    }
    text_ += "=" + value;
  }
  RecordField(const char* key, const char* value)
      : RecordField(key, std::string(value)) {}
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  RecordField(const char* key, T value) : text_(key) {
    if constexpr (std::is_integral_v<T>) {
      text_ += "=" + std::to_string(value);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(value));
      text_ += std::string("=") + buf;
      if (std::strpbrk(buf, ".en") == nullptr) text_ += ".0";
    }
  }

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// Prints the one machine-readable line shape every bench emits:
///   RECORD <section> key=value ...
/// scripts/run_benches.sh turns each line into one object of the
/// snapshot's "records" array ({"bench", "section", ...fields}); a new
/// bench adds records, not schema.
inline void Record(const char* section,
                   std::initializer_list<RecordField> fields) {
  std::string line = std::string("RECORD ") + section;
  for (const RecordField& field : fields) line += " " + field.text();
  std::printf("%s\n", line.c_str());
}

/// Median of `v` (the upper one for even sizes).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Sizes {
  int64_t ack_bound;
  int64_t fib_n;
  int64_t primes_n;
  int64_t slist_scale;
  int64_t csda_length;
  int64_t cspa_tuples;       // The "CSPA 20k" analog.
  int reps;

  static Sizes Get() {
    if (LargeScale()) {
      return {61, 25, 2000, 4, 8000, 20000, 3};
    }
    return {61, 25, 500, 1, 1500, 400, 1};
  }
};

inline harness::WorkloadFactory Factory(const std::string& name,
                                        analysis::RuleOrder order,
                                        const Sizes& sizes) {
  using namespace analysis;
  if (name == "Ackermann") {
    return [=] { return MakeAckermann(sizes.ack_bound, order); };
  }
  if (name == "Fibonacci") {
    return [=] { return MakeFibonacci(sizes.fib_n, order); };
  }
  if (name == "Primes") {
    return [=] { return MakePrimes(sizes.primes_n, order); };
  }
  if (name == "Andersen") {
    SListConfig config;
    config.scale = sizes.slist_scale;
    return [=] { return MakeAndersen(config, order); };
  }
  if (name == "InvFuns") {
    SListConfig config;
    config.scale = sizes.slist_scale;
    return [=] { return MakeInverseFunctions(config, order); };
  }
  if (name == "CSDA") {
    CsdaConfig config;
    config.length = sizes.csda_length;
    return [=] { return MakeCsda(config); };
  }
  if (name == "CSPA") {
    CspaConfig config;
    config.total_tuples = sizes.cspa_tuples;
    return [=] { return MakeCspa(config, order); };
  }
  return nullptr;
}

/// The seven configurations of Figs. 6-9 (Hand-Optimized is only included
/// when the baseline is the unoptimized program).
struct JitRowSpec {
  const char* label;
  backends::BackendKind backend;
  bool async;
};

inline const std::vector<JitRowSpec>& JitRows() {
  static const std::vector<JitRowSpec>* rows = new std::vector<JitRowSpec>{
      {"JIT IRGenerator", backends::BackendKind::kIRGenerator, false},
      {"JIT Lambda Blocking", backends::BackendKind::kLambda, false},
      {"JIT Bytecode Async", backends::BackendKind::kBytecode, true},
      {"JIT Bytecode Blocking", backends::BackendKind::kBytecode, false},
      {"JIT Quotes Async", backends::BackendKind::kQuotes, true},
      {"JIT Quotes Blocking", backends::BackendKind::kQuotes, false},
  };
  return *rows;
}

struct FigureBenchmark {
  std::string name;
  bool indexed_only = false;  // CSDA / CSPA run indexed only (paper §VI-B).
};

/// Shared driver for Figs. 6-9: speedup of each JIT configuration over the
/// interpreted `baseline_order` program, with the JIT consuming
/// `input_order` programs. Prints one row per configuration with indexed
/// and unindexed columns per benchmark, and one `RECORD cell` line per
/// measured cell (`figure` is its short label, e.g. "fig7").
inline void PrintSpeedupFigure(const char* figure, const std::string& title,
                               const std::vector<FigureBenchmark>& benchmarks,
                               analysis::RuleOrder input_order,
                               bool include_hand_row, const Sizes& sizes,
                               int num_threads = 1) {
  // The --threads dimension: every configuration gets the same
  // EngineConfig::num_threads, but only interpreted execution and
  // lambda-backend subqueries consume the pool — the bytecode, quotes
  // and IRGenerator compiled loops are single-threaded. At threads > 1
  // the figure therefore answers "what does enabling an N-thread pool do
  // to each configuration as-is", NOT "how does each backend scale"; the
  // printed note keeps recorded snapshots from being misread.
  auto measure = [&](const FigureBenchmark& b, analysis::RuleOrder order,
                     core::EngineConfig config) {
    config.num_threads = num_threads;
    return harness::MeasureMedian(Factory(b.name, order, sizes), config,
                                  sizes.reps)
        .seconds;
  };
  if (num_threads > 1) {
    std::printf("%s (threads=%d)\n\n", title.c_str(), num_threads);
    std::printf("note: num_threads parallelizes interpreted and "
                "lambda-backend subqueries only;\nbytecode/quotes/irgen "
                "compiled loops stay single-threaded, so JIT rows are\n"
                "NOT thread-scaled — compare against the equally-threaded "
                "interpreted baseline\nwith that in mind.\n\n");
  } else {
    std::printf("%s\n\n", title.c_str());
  }

  std::vector<std::string> headers = {"configuration"};
  for (const FigureBenchmark& b : benchmarks) {
    headers.push_back(b.name + " idx");
    headers.push_back(b.name + " unidx");
  }
  harness::TablePrinter table(headers);

  // Baselines per benchmark x index setting ([0] unindexed, [1] indexed).
  std::vector<std::array<double, 2>> baselines;
  for (const FigureBenchmark& b : benchmarks) {
    const double indexed =
        measure(b, input_order, harness::InterpretedConfig(true));
    baselines.push_back(
        {b.indexed_only
             ? 0
             : measure(b, input_order, harness::InterpretedConfig(false)),
         indexed});
  }

  struct Row {
    const char* label;
    analysis::RuleOrder order;
    std::function<core::EngineConfig(bool indexes)> config;
  };
  std::vector<Row> rows;
  if (include_hand_row) {
    rows.push_back({"Hand-Optimized (interp)",
                    analysis::RuleOrder::kHandOptimized,
                    [](bool indexes) {
                      return harness::InterpretedConfig(indexes);
                    }});
  }
  for (const JitRowSpec& spec : JitRows()) {
    rows.push_back({spec.label, input_order, [spec](bool indexes) {
                      return harness::JitConfigOf(
                          spec.backend, spec.async, indexes,
                          core::Granularity::kUnion,
                          backends::CompileMode::kFull);
                    }});
  }

  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.label};
    for (size_t i = 0; i < benchmarks.size(); ++i) {
      for (bool indexes : {true, false}) {
        if (!indexes && benchmarks[i].indexed_only) {
          cells.push_back("-");
          continue;
        }
        const double base = baselines[i][indexes];
        const double seconds =
            measure(benchmarks[i], row.order, row.config(indexes));
        const double speedup = base > 0 && seconds > 0 ? base / seconds : 0;
        cells.push_back(speedup > 0 ? harness::FormatSpeedup(speedup) : "-");
        Record("cell", {{"figure", figure},
                        {"config", row.label},
                        {"workload", benchmarks[i].name},
                        {"indexes", indexes ? "idx" : "unidx"},
                        {"baseline_s", base},
                        {"seconds", seconds},
                        {"speedup", speedup}});
      }
    }
    table.AddRow(std::move(cells));
  }
  table.Print();
}

}  // namespace carac::bench

#endif  // CARAC_BENCH_BENCH_COMMON_H_
