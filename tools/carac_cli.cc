// carac — command-line driver for the carac++ engine.
//
// Usage:
//   carac run <workload> [options]     run a built-in benchmark workload
//   carac dl <program.dl> [options]    run a textual Datalog program
//   carac tc <facts.csv> [options]     transitive closure over a CSV edge list
//   carac serve <program.dl> [options] incremental update session on stdin
//   carac server <program.dl> [options] concurrent socket server (see below)
//   carac list                         list built-in workloads
//
// Workloads: cspa csda andersen invfuns ackermann fibonacci primes
//
// Options:
//   --unoptimized          use the unlucky atom order (default: hand-tuned)
//   --jit                  evaluate with the adaptive JIT (default: interpret)
//   --backend=B            quotes | bytecode | lambda | irgen   (default lambda)
//   --granularity=G        program | dowhile | unionall | union | spj
//   --async                compile on the compiler thread
//   --snippet              snippet compilation (default: full)
//   --no-indexes           disable hash indexes
//   --index-kind=K         hash | btree | learned | auto — index
//                          organization for every declared index
//                          (default auto: hash for point-probed columns,
//                          statistics pick an ordered kind for
//                          range-only columns)
//   --adaptive-indexes     self-tuning indexes: profile each indexed
//                          column's runtime access mix and migrate its
//                          organization at epoch close when the evidence
//                          says another kind wins (results unchanged)
//   --range-pushdown=V     on | off — serve comparison-constrained scans
//                          through index range probes where profitable
//                          (default on; off forces the filtered-scan
//                          path, results byte-identical either way)
//   --pull                 pull-based relational engine (default: push)
//   --aot[=rules]          ahead-of-time planning (facts+rules, or rules only)
//   --scale=N              workload size multiplier (default 1)
//   --threads=N            evaluation threads for the semi-naive fixpoint
//                          (default 1; results are identical at any value)
//   --parallel-min-outer-rows=N
//                          outer scans below N rows stay single-threaded
//                          (default 128)
//   --snapshot-dir=DIR     durable-state directory (snapshot + fact log);
//                          enables serve's save/open commands and logs
//                          every batch + epoch for crash recovery
//   --checkpoint-every=N   with --snapshot-dir: auto-checkpoint after
//                          every N epochs (0 = manual `save` only)
//   --listen-unix=PATH     (server) listen on a Unix-domain socket
//   --listen-tcp=PORT      (server) listen on 127.0.0.1:PORT (0 =
//                          ephemeral; the resolved port is printed)
//   --server-workers=N     (server) worker threads, each owning the
//                          sessions pinned to it (default 1)
//   --admission-batch=N    (server) max requests a worker admits per
//                          queue pop (default 16)
//   --ir                   print the lowered IR before running
//   --stats                print execution counters
//
// `carac serve` reads commands from stdin after Prepare(), one per line
// ('#' starts a comment):
//   load <Relation> <file.csv>   append a fact batch to a relation
//   update                       bring the fixpoint up to date (the first
//                                update is a full evaluation, later ones
//                                are incremental epochs) and print the
//                                epoch report
//   count <Relation>             print the relation's derived row count
//   dump <Relation>              print the relation's sorted rows (TSV)
//   stats                        print per-column index kinds, probe
//                                counters and adaptive re-kind events
//   save                         checkpoint durable state now
//                                (requires --snapshot-dir)
//   open                         recover durable state: load the snapshot
//                                and replay the fact-log tail
//   quit                         exit (EOF works too)
// Malformed input — unknown commands or relations, wrong-arity facts,
// unreadable files — prints a diagnostic and CONTINUES the session (a
// typo must not tear down live state); the session still exits 0. Only
// startup failures (unparsable program, failed Prepare) and a failed
// `open` (the database may be partially overwritten — serving it would
// lie) exit nonzero.
//
// `carac server` serves the same command protocol to N concurrent
// clients over Unix-domain and/or TCP sockets, one request per line.
// Responses are framed: zero or more "| "-prefixed payload lines, then
// "ok" or "err <diagnostic>". Reads (count/dump/stats) answer from the
// engine's epoch-snapshot read view (the last closed epoch) and are
// never blocked by an in-flight load/update; writes serialize through
// the single-writer epoch pipeline. Timing-bearing payloads (update's
// epoch report, open's restore summary) are suppressed so responses are
// a pure function of each session's request stream. `quit` ends one
// session; SIGINT/SIGTERM (or a failed `open`) shut the server down
// after in-flight requests complete.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/loader.h"
#include "analysis/programs.h"
#include "datalog/parser.h"
#include "core/engine.h"
#include "harness/table.h"
#include "net/commands.h"
#include "net/server.h"
#include "util/parse.h"
#include "util/timer.h"

namespace {

using namespace carac;

constexpr int64_t kMaxScale = 1'000'000'000'000;  // 1e12

struct Options {
  std::string command;
  std::string target;
  analysis::RuleOrder order = analysis::RuleOrder::kHandOptimized;
  core::EngineConfig config;
  int64_t scale = 1;
  std::string scale_arg;  // raw --scale value, kept for diagnostics
  // Raw --threads / --parallel-min-outer-rows values; -1 marks "invalid",
  // turned into a diagnostic + exit 2 by main() (same contract as --scale).
  int64_t threads = 1;
  std::string threads_arg;
  int64_t parallel_min_rows = 128;
  std::string parallel_min_rows_arg;
  // Raw --checkpoint-every value; -1 marks "invalid" (diagnostic + exit 2).
  int64_t checkpoint_every = 0;
  std::string checkpoint_every_arg;
  // Raw --index-kind value; the bool marks "invalid" (diagnostic +
  // exit 2, same contract as --scale).
  bool index_kind_invalid = false;
  std::string index_kind_arg;
  // Raw --range-pushdown value; the bool marks "invalid" (diagnostic +
  // exit 2, same contract as --index-kind).
  bool range_pushdown_invalid = false;
  std::string range_pushdown_arg;
  bool snapshot_dir_empty = false;  // --snapshot-dir= with no path.
  // Server flags. listen_tcp: -1 = off, 0 = ephemeral, else the port;
  // -2 marks "invalid" (diagnostic + exit 2, same contract as --scale).
  std::string listen_unix;
  bool listen_unix_empty = false;  // --listen-unix= with no path.
  int64_t listen_tcp = -1;
  std::string listen_tcp_arg;
  int64_t server_workers = 1;
  std::string server_workers_arg;
  int64_t admission_batch = 16;
  std::string admission_batch_arg;
  bool print_ir = false;
  bool print_stats = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: carac run <workload> [options]\n"
               "       carac dl <program.dl> [options]\n"
               "       carac tc <facts.csv> [options]\n"
               "       carac serve <program.dl> [options]\n"
               "       carac server <program.dl> --listen-unix=PATH and/or\n"
               "                    --listen-tcp=PORT [--server-workers=N]\n"
               "                    [--admission-batch=N] [options]\n"
               "       carac list\n"
               "options include --threads=N and --parallel-min-outer-rows=N\n"
               "(evaluation threads / parallel dispatch threshold),\n"
               "--index-kind={%s,auto} (index organization),\n"
               "--adaptive-indexes (self-tuning index organization),\n"
               "--range-pushdown={on,off} (comparison\n"
               "builtins as index range probes) and\n"
               "--snapshot-dir=DIR / --checkpoint-every=N (durable state:\n"
               "serve gains save/open commands and crash recovery);\n"
               "see the header of tools/carac_cli.cc for the full list\n",
               storage::IndexKindNameList().c_str());
  return 2;
}

bool ParseFlag(const std::string& arg, Options* opts) {
  auto value_of = [&](const char* prefix) -> const char* {
    const size_t n = std::strlen(prefix);
    return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
  };
  if (arg == "--unoptimized") {
    opts->order = analysis::RuleOrder::kUnoptimized;
  } else if (arg == "--jit") {
    opts->config.mode = core::EvalMode::kJit;
  } else if (const char* b = value_of("--backend=")) {
    opts->config.mode = core::EvalMode::kJit;
    std::string backend = b;
    if (backend == "quotes") {
      opts->config.jit.backend = backends::BackendKind::kQuotes;
    } else if (backend == "bytecode") {
      opts->config.jit.backend = backends::BackendKind::kBytecode;
    } else if (backend == "lambda") {
      opts->config.jit.backend = backends::BackendKind::kLambda;
    } else if (backend == "irgen") {
      opts->config.jit.backend = backends::BackendKind::kIRGenerator;
    } else {
      return false;
    }
  } else if (const char* g = value_of("--granularity=")) {
    std::string level = g;
    if (level == "program") {
      opts->config.jit.granularity = core::Granularity::kProgram;
    } else if (level == "dowhile") {
      opts->config.jit.granularity = core::Granularity::kDoWhile;
    } else if (level == "unionall") {
      opts->config.jit.granularity = core::Granularity::kUnionAll;
    } else if (level == "union") {
      opts->config.jit.granularity = core::Granularity::kUnion;
    } else if (level == "spj") {
      opts->config.jit.granularity = core::Granularity::kSpj;
    } else {
      return false;
    }
  } else if (arg == "--async") {
    opts->config.jit.async = true;
  } else if (arg == "--snippet") {
    opts->config.jit.mode = backends::CompileMode::kSnippet;
  } else if (arg == "--no-indexes") {
    opts->config.use_indexes = false;
  } else if (const char* k = value_of("--index-kind=")) {
    opts->index_kind_arg = k;
    // Strict: a typo'd kind must not silently fall back to the default
    // organization (benchmark ablations would measure the wrong thing).
    storage::IndexKind kind;
    if (opts->index_kind_arg == "auto") {
      opts->config.index_kind.reset();
    } else if (storage::ParseIndexKind(opts->index_kind_arg, &kind)) {
      opts->config.index_kind = kind;
    } else {
      opts->index_kind_invalid = true;
    }
  } else if (arg == "--adaptive-indexes") {
    opts->config.adaptive_indexes = true;
  } else if (const char* r = value_of("--range-pushdown=")) {
    opts->range_pushdown_arg = r;
    // Strict like --index-kind: a typo must not silently run with the
    // default (A/B ablations would measure the wrong configuration).
    if (opts->range_pushdown_arg == "on") {
      opts->config.range_pushdown = true;
    } else if (opts->range_pushdown_arg == "off") {
      opts->config.range_pushdown = false;
    } else {
      opts->range_pushdown_invalid = true;
    }
  } else if (arg == "--pull") {
    opts->config.engine_style = ir::EngineStyle::kPull;
  } else if (arg == "--aot" || arg == "--aot=facts") {
    opts->config.aot_reorder = true;
    opts->config.aot.use_fact_cardinalities = true;
  } else if (arg == "--aot=rules") {
    opts->config.aot_reorder = true;
    opts->config.aot.use_fact_cardinalities = false;
  } else if (const char* t = value_of("--threads=")) {
    opts->threads_arg = t;
    // Strict integer, bounded like the bench harness: a typo'd thread
    // count must not silently fall back to 1.
    if (!util::ParseInt64(t, &opts->threads) || opts->threads < 1 ||
        opts->threads > 256) {
      opts->threads = -1;
    }
  } else if (const char* m = value_of("--parallel-min-outer-rows=")) {
    opts->parallel_min_rows_arg = m;
    if (!util::ParseInt64(m, &opts->parallel_min_rows) ||
        opts->parallel_min_rows < 1 ||
        opts->parallel_min_rows > std::numeric_limits<uint32_t>::max()) {
      opts->parallel_min_rows = -1;
    }
  } else if (const char* d = value_of("--snapshot-dir=")) {
    opts->config.snapshot_dir = d;
    opts->snapshot_dir_empty = opts->config.snapshot_dir.empty();
  } else if (const char* u = value_of("--listen-unix=")) {
    opts->listen_unix = u;
    opts->listen_unix_empty = opts->listen_unix.empty();
  } else if (const char* p = value_of("--listen-tcp=")) {
    opts->listen_tcp_arg = p;
    // Strict like --scale: a typo'd port must not silently bind an
    // ephemeral one. 0 is valid and means "kernel picks".
    if (!util::ParseInt64(p, &opts->listen_tcp) || opts->listen_tcp < 0 ||
        opts->listen_tcp > 65535) {
      opts->listen_tcp = -2;
    }
  } else if (const char* n = value_of("--server-workers=")) {
    opts->server_workers_arg = n;
    if (!util::ParseInt64(n, &opts->server_workers) ||
        opts->server_workers < 1 || opts->server_workers > 64) {
      opts->server_workers = -1;
    }
  } else if (const char* a = value_of("--admission-batch=")) {
    opts->admission_batch_arg = a;
    if (!util::ParseInt64(a, &opts->admission_batch) ||
        opts->admission_batch < 1 || opts->admission_batch > 4096) {
      opts->admission_batch = -1;
    }
  } else if (const char* c = value_of("--checkpoint-every=")) {
    opts->checkpoint_every_arg = c;
    // Strict integer like --scale: a typo'd cadence must not silently
    // disable (or constant-trigger) checkpointing. 0 = manual only.
    if (!util::ParseInt64(c, &opts->checkpoint_every) ||
        opts->checkpoint_every < 0 || opts->checkpoint_every > kMaxScale) {
      opts->checkpoint_every = -1;
    }
  } else if (const char* s = value_of("--scale=")) {
    opts->scale_arg = s;
    // Reject garbage, overflow, and anything whose per-workload tuple
    // multiplication (up to 1500x) could overflow int64; main() turns
    // scale 0 into a diagnostic + exit 2.
    if (!util::ParseInt64(s, &opts->scale) || opts->scale > kMaxScale) {
      opts->scale = 0;
    }
  } else if (arg == "--ir") {
    opts->print_ir = true;
  } else if (arg == "--stats") {
    opts->print_stats = true;
  } else {
    return false;
  }
  return true;
}

analysis::Workload MakeNamedWorkload(const Options& opts, bool* ok) {
  *ok = true;
  const std::string& name = opts.target;
  const int64_t scale = opts.scale;
  if (name == "cspa") {
    analysis::CspaConfig config;
    config.total_tuples = 400 * scale;
    return analysis::MakeCspa(config, opts.order);
  }
  if (name == "csda") {
    analysis::CsdaConfig config;
    config.length = 1500 * scale;
    return analysis::MakeCsda(config);
  }
  if (name == "andersen") {
    analysis::SListConfig config;
    config.scale = scale;
    return analysis::MakeAndersen(config, opts.order);
  }
  if (name == "invfuns") {
    analysis::SListConfig config;
    config.scale = scale;
    return analysis::MakeInverseFunctions(config, opts.order);
  }
  if (name == "ackermann") return analysis::MakeAckermann(61, opts.order);
  if (name == "fibonacci") {
    return analysis::MakeFibonacci(25 * scale, opts.order);
  }
  if (name == "primes") return analysis::MakePrimes(500 * scale, opts.order);
  *ok = false;
  return {};
}

int RunWorkload(const Options& opts, analysis::Workload workload) {
  core::Engine engine(workload.program.get(), opts.config);
  util::Status status = engine.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (opts.print_ir) {
    std::fputs(engine.ir().ToString(*workload.program).c_str(), stdout);
  }
  util::Timer timer;
  status = engine.Run();
  const double seconds = timer.ElapsedSeconds();
  if (!status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu output tuples in %s s\n", workload.name.c_str(),
              engine.ResultSize(workload.output),
              harness::FormatSeconds(seconds).c_str());
  if (opts.print_stats) {
    std::printf("stats: %s\n", engine.stats().ToString().c_str());
  }
  return 0;
}

/// The `serve` command: Prepare() once, then apply stdin commands —
/// fact batches, update epochs and (with --snapshot-dir) durable
/// checkpoints — against the live engine. This is the CLI surface of
/// re-enterable evaluation: each `update` pays for the delta, not the
/// database, and `open` recovers a previous session's state in O(log
/// tail) instead of re-evaluating.
///
/// Error contract: malformed input (unknown command or relation, missing
/// arguments, trailing junk, wrong-arity facts, unreadable files) prints
/// a diagnostic and the session CONTINUES — in a long-lived updatable
/// database, a typo must not tear down the in-memory fixpoint. Only
/// startup failures and a failed `open` (see below) exit nonzero.
int RunServe(const Options& opts) {
  auto program = std::make_unique<datalog::Program>();
  util::Status status = datalog::ParseDatalogFile(opts.target, program.get());
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  core::Engine engine(program.get(), opts.config);
  status = engine.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (opts.print_ir) {
    std::fputs(engine.ir().ToString(*program).c_str(), stdout);
  }

  net::ServeContext ctx;
  ctx.program = program.get();
  ctx.engine = &engine;
  ctx.snapshot_dir = opts.config.snapshot_dir;
  net::StdioWriter writer;

  std::string line;
  while (std::getline(std::cin, line)) {
    const net::ServeOutcome outcome =
        net::ExecuteServeLine(&ctx, std::move(line), &writer);
    // Responses must reach the client NOW: stdout is block-buffered on
    // pipes, so without the flush a programmatic client that waits for
    // this command's response before sending its next command deadlocks
    // against the unflushed buffer.
    std::fflush(stdout);
    std::fflush(stderr);
    if (outcome == net::ServeOutcome::kQuit) return 0;
    if (outcome == net::ServeOutcome::kFatal) return 1;
  }
  return 0;
}

/// SIGINT/SIGTERM handler target: RequestShutdown is one write(2) on a
/// self-pipe, the async-signal-safe way to stop a poll loop.
net::Server* g_server = nullptr;

void HandleShutdownSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

/// The `server` command: the serve protocol, concurrently, over
/// sockets. Same engine setup as serve; the serving layer itself lives
/// in src/net (see net::Server for the threading model and the
/// shutdown contract).
int RunServer(const Options& opts) {
  auto program = std::make_unique<datalog::Program>();
  util::Status status = datalog::ParseDatalogFile(opts.target, program.get());
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  core::Engine engine(program.get(), opts.config);
  status = engine.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (opts.print_ir) {
    std::fputs(engine.ir().ToString(*program).c_str(), stdout);
  }

  std::mutex write_mutex;
  net::ServeContext ctx;
  ctx.program = program.get();
  ctx.engine = &engine;
  ctx.snapshot_dir = opts.config.snapshot_dir;
  ctx.snapshot_reads = true;
  ctx.deterministic_replies = true;
  ctx.write_mutex = &write_mutex;

  net::ServerConfig server_config;
  server_config.unix_path = opts.listen_unix;
  server_config.tcp_port = static_cast<int>(opts.listen_tcp);
  server_config.num_workers = static_cast<int>(opts.server_workers);
  server_config.admission_batch =
      static_cast<size_t>(opts.admission_batch);

  net::Server server(&ctx, server_config);
  status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server failed: %s\n", status.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  // The ready banner, flushed: clients (and the test harness) wait for
  // it — and parse the resolved port out of it — before connecting.
  if (!opts.listen_unix.empty()) {
    std::printf("serving unix:%s\n", opts.listen_unix.c_str());
  }
  if (opts.listen_tcp >= 0) {
    std::printf("serving tcp:%d\n", server.tcp_port());
  }
  std::printf("ready\n");
  std::fflush(stdout);

  server.Wait();
  g_server = nullptr;
  return server.fatal_error() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (argc < 2) return Usage();
  opts.command = argv[1];

  if (opts.command == "list") {
    std::printf("cspa csda andersen invfuns ackermann fibonacci primes\n");
    return 0;
  }
  if (argc < 3) return Usage();
  opts.target = argv[2];
  for (int i = 3; i < argc; ++i) {
    if (!ParseFlag(argv[i], &opts)) {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage();
    }
  }
  if (opts.scale < 1) {
    std::fprintf(stderr,
                 "invalid --scale=%s: scale must be an integer in "
                 "[1, %lld]\n",
                 opts.scale_arg.c_str(),
                 static_cast<long long>(kMaxScale));
    return 2;
  }
  if (opts.threads < 1) {
    std::fprintf(stderr,
                 "invalid --threads=%s: threads must be an integer in "
                 "[1, 256]\n",
                 opts.threads_arg.c_str());
    return 2;
  }
  if (opts.parallel_min_rows < 1) {
    std::fprintf(stderr,
                 "invalid --parallel-min-outer-rows=%s: expected an integer "
                 "in [1, %llu]\n",
                 opts.parallel_min_rows_arg.c_str(),
                 static_cast<unsigned long long>(
                     std::numeric_limits<uint32_t>::max()));
    return 2;
  }
  if (opts.index_kind_invalid) {
    std::fprintf(stderr,
                 "invalid --index-kind=%s: expected one of %s, or auto\n",
                 opts.index_kind_arg.c_str(),
                 storage::IndexKindNameList().c_str());
    return 2;
  }
  if (opts.range_pushdown_invalid) {
    std::fprintf(stderr, "invalid --range-pushdown=%s: expected on or off\n",
                 opts.range_pushdown_arg.c_str());
    return 2;
  }
  if (opts.snapshot_dir_empty) {
    std::fprintf(stderr, "invalid --snapshot-dir=: needs a directory path\n");
    return 2;
  }
  if (opts.checkpoint_every < 0) {
    std::fprintf(stderr,
                 "invalid --checkpoint-every=%s: expected an integer in "
                 "[0, %lld]\n",
                 opts.checkpoint_every_arg.c_str(),
                 static_cast<long long>(kMaxScale));
    return 2;
  }
  if (opts.checkpoint_every > 0 && opts.config.snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "--checkpoint-every requires --snapshot-dir "
                 "(nowhere to write the checkpoint)\n");
    return 2;
  }
  if (opts.listen_unix_empty) {
    std::fprintf(stderr, "invalid --listen-unix=: needs a socket path\n");
    return 2;
  }
  if (opts.listen_tcp == -2) {
    std::fprintf(stderr,
                 "invalid --listen-tcp=%s: expected a port in [0, 65535] "
                 "(0 = ephemeral)\n",
                 opts.listen_tcp_arg.c_str());
    return 2;
  }
  if (opts.server_workers < 1) {
    std::fprintf(stderr,
                 "invalid --server-workers=%s: expected an integer in "
                 "[1, 64]\n",
                 opts.server_workers_arg.c_str());
    return 2;
  }
  if (opts.admission_batch < 1) {
    std::fprintf(stderr,
                 "invalid --admission-batch=%s: expected an integer in "
                 "[1, 4096]\n",
                 opts.admission_batch_arg.c_str());
    return 2;
  }
  if (opts.command == "server" && opts.listen_unix.empty() &&
      opts.listen_tcp < 0) {
    std::fprintf(stderr,
                 "server needs --listen-unix=PATH and/or --listen-tcp=PORT "
                 "(nothing to listen on)\n");
    return 2;
  }
  opts.config.num_threads = static_cast<int>(opts.threads);
  opts.config.parallel_min_outer_rows =
      static_cast<uint32_t>(opts.parallel_min_rows);
  opts.config.checkpoint_every =
      static_cast<uint64_t>(opts.checkpoint_every);

  if (opts.command == "run") {
    bool ok = false;
    analysis::Workload workload = MakeNamedWorkload(opts, &ok);
    if (!ok) {
      std::fprintf(stderr, "unknown workload: %s (try `carac list`)\n",
                   opts.target.c_str());
      return 2;
    }
    return RunWorkload(opts, std::move(workload));
  }

  if (opts.command == "dl") {
    auto program = std::make_unique<datalog::Program>();
    util::Status status =
        datalog::ParseDatalogFile(opts.target, program.get());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    core::Engine engine(program.get(), opts.config);
    status = engine.Prepare();
    if (!status.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    if (opts.print_ir) {
      std::fputs(engine.ir().ToString(*program).c_str(), stdout);
    }
    util::Timer timer;
    status = engine.Run();
    const double seconds = timer.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
      return 1;
    }
    harness::TablePrinter table({"relation", "derived tuples"});
    for (datalog::PredicateId id = 0; id < program->NumPredicates(); ++id) {
      if (!program->IsIdb(id)) continue;
      table.AddRow({program->PredicateName(id),
                    std::to_string(engine.ResultSize(id))});
    }
    table.Print();
    std::printf("evaluated %s in %s s\n", opts.target.c_str(),
                harness::FormatSeconds(seconds).c_str());
    if (opts.print_stats) {
      std::printf("stats: %s\n", engine.stats().ToString().c_str());
    }
    return 0;
  }

  if (opts.command == "serve") {
    return RunServe(opts);
  }

  if (opts.command == "server") {
    return RunServer(opts);
  }

  if (opts.command == "tc") {
    analysis::Workload workload;
    workload.name = "TransitiveClosure(" + opts.target + ")";
    workload.program = std::make_unique<datalog::Program>();
    datalog::Dsl dsl(workload.program.get());
    auto edge = dsl.Relation("Edge", 2);
    auto path = dsl.Relation("Path", 2);
    auto [x, y, z] = dsl.Vars<3>();
    path(x, y) <<= edge(x, y);
    path(x, z) <<= path(x, y) & edge(y, z);
    workload.output = path.id();
    util::Status status = analysis::LoadFactsCsv(
        opts.target, workload.program.get(), edge.id());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return RunWorkload(opts, std::move(workload));
  }

  return Usage();
}
