// serve-incremental: an in-process net::Server on a Unix socket, driven
// by one open-loop load-generator thread (this one) over four sessions.
//
// Each session owns its relations (Edge<s>, Reach<s>, Watch<s>,
// Cleared<s>, Alarm<s>), so what a session reads depends only on its own
// writes: every response is checked byte for byte against an in-process
// replay of the same schedule. A write is `load` of a fresh block of
// edges (every kWatchEvery-th write also loads Watch/Cleared facts, which
// makes the negated stratum recompute) followed by `update`. Blocks are
// disjoint, so the work per epoch stays the same over the whole run.
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

#include "analysis/loader.h"
#include "core/engine.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "net/commands.h"
#include "net/framing.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = carac::core;
namespace net = carac::net;
using carac::datalog::Program;

constexpr int kSessions = 4;
constexpr int kWorkers = 2;
/// Vertices and edges of one write's block; edge weights are 0..99 and
/// Reach follows the edges below kWeightCut (a 45% range, under the
/// optimizer's 50% range-probe cut-off, so range pushdown engages).
constexpr int kBlock = 256;
constexpr int kBlockEdges = 512;
constexpr int kWeightCut = 45;
/// Blocks per session loaded at set-up, before the first full update.
constexpr int kBaseBlocks = 100;
/// Every kWatchEvery-th block also feeds the negated stratum.
constexpr int kWatchEvery = 8;
/// Offered load over all sessions (Poisson arrivals) and its mix. This
/// mix saturates the server at 540-620 requests/s on the 4-vCPU host the
/// benchmark was tuned on (a --rate ladder, perfbench/README.md); 160 is
/// about a quarter of that, where write latency is still what it is at
/// 80. The mix is an arbitrary write-heavy choice, so that per-epoch cost
/// dominates what is measured.
constexpr double kOpsPerSecond = 160;
constexpr double kWriteShare = 0.45;
constexpr double kDumpShare = 0.15;
/// Durable-state policy, the same on every run: checkpoint every 64
/// closed epochs.
constexpr uint64_t kCheckpointEvery = 64;
/// Set-ups per run: the host's speed drifts over tens of seconds, so
/// they are spread over the run (the last of the first group serves the
/// traffic; the others are torn down again).
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfterTraffic = 2;
constexpr int kSetupsAfterReplays = 2;
constexpr int kRecoveries = 5;
/// In-process replays of the run's writes, and the replayed update
/// epochs summed into one fixpoint_s sample (two of them checkpoint).
constexpr int kReplays = 3;
constexpr size_t kWindowEpochs = 128;
/// Share of --seconds given to the served traffic; the rest covers the
/// set-ups, the replay, the recoveries and the final-state checks.
constexpr double kTrafficShare = 0.55;

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_++, 0x5E2E); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

std::string Rel(const char* name, int session) {
  return name + std::to_string(session);
}

std::string ProgramText() {
  std::string text;
  for (int s = 0; s < kSessions; ++s) {
    const std::string e = Rel("Edge", s), r = Rel("Reach", s);
    text += r + "(x, y) :- " + e + "(x, y, w), w < " +
            std::to_string(kWeightCut) + ".\n";
    text += r + "(x, z) :- " + r + "(x, y), " + e + "(y, z, w), w < " +
            std::to_string(kWeightCut) + ".\n";
    text += Rel("Alarm", s) + "(x, y) :- " + Rel("Watch", s) + "(x), " + r +
            "(x, y), !" + Rel("Cleared", s) + "(y).\n";
  }
  return text;
}

/// One (relation, csv) load.
using Load = std::pair<std::string, std::string>;

enum class Kind { kWrite, kCount, kDump };

struct Op {
  double due_s = 0;
  int session = 0;
  Kind kind = Kind::kCount;
  /// What the generator sends.
  std::vector<std::string> lines;
  /// A write's loads as the replay performs them (never corrupted).
  std::vector<Load> loads;
};

struct Inputs {
  std::string dir;
  std::string program_path;
  std::vector<Load> base[kSessions];
  std::vector<Op> ops;
  /// Every csv in load order, for the from-scratch evaluation.
  std::vector<Load> all_loads;
};

bool WriteBlock(const std::string& path, Rng* rng, int64_t block) {
  std::ofstream out(path, std::ios::app);
  for (int e = 0; e < kBlockEdges; ++e) {
    const int64_t u = static_cast<int64_t>(rng->Below(kBlock));
    const int64_t v = static_cast<int64_t>(rng->Below(kBlock));
    if (u == v) continue;
    out << block * kBlock + std::min(u, v) << ',' << block * kBlock + std::max(u, v)
        << ',' << rng->Below(100) << '\n';
  }
  return static_cast<bool>(out);
}

bool WriteWatch(const std::string& watch, const std::string& cleared, Rng* rng,
                int64_t block) {
  std::ofstream w(watch, std::ios::app), c(cleared, std::ios::app);
  for (int i = 0; i < 2; ++i) w << block * kBlock + rng->Below(kBlock / 4) << '\n';
  for (int i = 0; i < 6; ++i) c << block * kBlock + rng->Below(kBlock) << '\n';
  return static_cast<bool>(w) && static_cast<bool>(c);
}

/// Generates the program, the base facts, every write's batch files and
/// the request schedule from the seed. `corrupt` makes one served batch
/// carry an extra edge the replay does not see.
bool MakeInputs(const Options& options, double traffic_s, Inputs* in) {
  in->dir = options.out_dir + "/serve-" + std::to_string(options.seed) + "-" +
            std::to_string(getpid());
  fs::remove_all(in->dir);
  fs::create_directories(in->dir + "/in");
  in->program_path = in->dir + "/in/program.dl";
  {
    std::ofstream out(in->program_path);
    out << ProgramText();
    if (!out) return false;
  }
  bool ok = true;
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(Mix(options.seed, 100 + s));
    const std::string prefix = in->dir + "/in/s" + std::to_string(s);
    const std::string edges = prefix + "-base-edges.csv";
    const std::string watch = prefix + "-base-watch.csv";
    const std::string cleared = prefix + "-base-cleared.csv";
    for (int b = 0; b < kBaseBlocks; ++b) {
      ok = ok && WriteBlock(edges, &rng, b);
      if (b % kWatchEvery == 0) ok = ok && WriteWatch(watch, cleared, &rng, b);
    }
    in->base[s] = {{Rel("Edge", s), edges},
                   {Rel("Watch", s), watch},
                   {Rel("Cleared", s), cleared}};
    for (const Load& l : in->base[s]) in->all_loads.push_back(l);
  }

  // Poisson arrivals per session; the kind of each op drawn by the mix.
  std::vector<Op> ops;
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(Mix(options.seed, 200 + s));
    const double rate = (options.rate > 0 ? options.rate : kOpsPerSecond) / kSessions;
    double t = 0.05;
    int writes = 0;
    for (;;) {
      t += -std::log(1.0 - rng.Uniform()) / rate;
      if (t >= traffic_s) break;
      Op op;
      op.due_s = t;
      op.session = s;
      const double u = rng.Uniform();
      if (u < kWriteShare) {
        op.kind = Kind::kWrite;
        const int64_t block = kBaseBlocks + writes;
        const std::string prefix = in->dir + "/in/s" + std::to_string(s) +
                                   "-w" + std::to_string(writes);
        std::vector<Load> loads = {{Rel("Edge", s), prefix + "-edges.csv"}};
        ok = ok && WriteBlock(loads[0].second, &rng, block);
        if (writes % kWatchEvery == kWatchEvery - 1) {
          loads.push_back({Rel("Watch", s), prefix + "-watch.csv"});
          loads.push_back({Rel("Cleared", s), prefix + "-cleared.csv"});
          ok = ok && WriteWatch(loads[1].second, loads[2].second, &rng, block);
        }
        for (const Load& l : loads) {
          in->all_loads.push_back(l);
          op.loads.push_back(l);
          std::string path = l.second;
          if (options.corrupt && s == 0 && writes == 0 && l == loads[0]) {
            // The served copy gets one extra reachable edge.
            path = prefix + "-edges-corrupt.csv";
            fs::copy_file(l.second, path);
            std::ofstream(path, std::ios::app)
                << block * kBlock << ',' << block * kBlock + kBlock - 1 << ",0\n";
          }
          op.lines.push_back("load " + l.first + " " + path);
        }
        op.lines.push_back("update");
        ++writes;
      } else {
        op.kind = u < kWriteShare + kDumpShare ? Kind::kDump : Kind::kCount;
        op.lines.push_back(op.kind == Kind::kDump ? "dump " + Rel("Alarm", s)
                                                  : "count " + Rel("Reach", s));
      }
      ops.push_back(std::move(op));
    }
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.due_s < b.due_s; });
  in->ops = std::move(ops);
  return ok;
}

core::EngineConfig ServeConfig(const std::string& state_dir,
                               uint64_t checkpoint_every) {
  core::EngineConfig c;
  c.adaptive_indexes = true;
  c.snapshot_dir = state_dir;
  c.checkpoint_every = checkpoint_every;
  return c;
}

/// Digest of every relation of a program, in predicate order.
std::vector<Digest> DigestAll(const Program& program, const core::Engine& engine) {
  const std::shared_ptr<const core::ReadView> view = engine.PinReadView();
  std::vector<Digest> out;
  for (size_t p = 0; p < program.NumPredicates(); ++p) {
    out.push_back(DigestRows(view->relations[p]));
  }
  return out;
}

// ---- Socket clients ----

int Connect(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) {
      pollfd writable{fd, POLLOUT, 0};
      if (poll(&writable, 1, 10000) <= 0) return false;
      continue;
    }
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// A request line in flight and what came back for it.
struct Pending {
  size_t op = 0;
  Clock::time_point sent;
};

/// Per-session receive state.
struct Session {
  int fd = -1;
  std::string buffer;
  std::deque<Pending> pending;
  std::string response;  // payload + terminator of the line being answered
};

/// What the server answered for one op.
struct Served {
  std::vector<std::string> responses;
  std::vector<double> line_s;  // per line, from its send to its answer
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  bool finished = false;
};

/// A running server with its engine, program and connected sessions.
struct Live {
  std::unique_ptr<Program> program;
  std::unique_ptr<core::Engine> engine;
  std::mutex write_mutex;
  net::ServeContext ctx;
  std::unique_ptr<net::Server> server;
  Session sessions[kSessions];
  std::string socket_path;

  ~Live() { Stop(); }
  void Stop() {
    for (Session& s : sessions) {
      if (s.fd >= 0) close(s.fd);
      s.fd = -1;
    }
    if (server != nullptr) {
      server->RequestShutdown();
      server->Wait();
      server.reset();
    }
    if (!socket_path.empty()) ::unlink(socket_path.c_str());
  }
};

/// Reads whatever `session` has to offer; calls on_line for each
/// complete response terminator ("ok" / "err ...") with the whole
/// response text. Returns false on EOF or error.
template <typename OnLine>
bool Drain(Session* session, OnLine on_line) {
  char buf[65536];
  const ssize_t n = read(session->fd, buf, sizeof(buf));
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
  if (n <= 0) return false;
  session->buffer.append(buf, static_cast<size_t>(n));
  size_t start = 0;
  for (size_t nl; (nl = session->buffer.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    const std::string line = session->buffer.substr(start, nl - start);
    session->response += line;
    session->response += '\n';
    if (line.rfind("| ", 0) == 0) continue;
    on_line(session->response);
    session->response.clear();
  }
  session->buffer.erase(0, start);
  return true;
}

/// Sends `lines` on each listed session and waits for every answer.
bool RoundTrip(Live* live, const std::vector<std::pair<int, std::string>>& lines) {
  int outstanding = 0;
  for (const auto& [s, line] : lines) {
    if (!SendAll(live->sessions[s].fd, line + "\n")) return false;
    ++outstanding;
  }
  bool ok = true;
  while (outstanding > 0) {
    pollfd fds[kSessions];
    for (int s = 0; s < kSessions; ++s) fds[s] = {live->sessions[s].fd, POLLIN, 0};
    if (poll(fds, kSessions, 30000) <= 0) return false;
    for (int s = 0; s < kSessions; ++s) {
      if ((fds[s].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const bool alive = Drain(&live->sessions[s], [&](const std::string& r) {
        --outstanding;
        ok = ok && r.size() >= 3 && r.compare(r.size() - 3, 3, "ok\n") == 0;
        if (!ok) std::cerr << "perfbench: set-up answer: " << r;
      });
      if (!alive) return false;
    }
  }
  return ok;
}

/// One set-up: parse, Prepare, start the server, connect the sessions,
/// load the base facts and run the first (full) update. Returns the
/// seconds it took, or a negative value on failure.
double SetUp(const Inputs& in, const std::string& state_dir, Live* live,
             Tracer* tracer) {
  fs::remove_all(state_dir);
  fs::create_directories(state_dir);
  const Clock::time_point t0 = Clock::now();
  live->program = std::make_unique<Program>();
  {
    ScopedSpan span(tracer, "datalog::ParseDatalogFile", "datalog");
    if (!Ok(carac::datalog::ParseDatalogFile(in.program_path, live->program.get()),
            "parse")) {
      return -1;
    }
  }
  live->engine = std::make_unique<core::Engine>(
      live->program.get(), ServeConfig(state_dir, kCheckpointEvery));
  {
    ScopedSpan span(tracer, "core::Engine::Prepare", "core");
    if (!Ok(live->engine->Prepare(), "Prepare")) return -1;
  }
  live->ctx.program = live->program.get();
  live->ctx.engine = live->engine.get();
  live->ctx.snapshot_reads = true;
  live->ctx.deterministic_replies = true;
  live->ctx.write_mutex = &live->write_mutex;
  net::ServerConfig config;
  config.unix_path = live->socket_path;
  config.num_workers = kWorkers;
  {
    ScopedSpan span(tracer, "net::Server::Start", "net");
    live->server = std::make_unique<net::Server>(&live->ctx, config);
    if (!Ok(live->server->Start(), "server start")) return -1;
    for (Session& s : live->sessions) {
      s.fd = Connect(live->socket_path);
      if (s.fd < 0) return -1;
    }
  }
  std::vector<std::pair<int, std::string>> loads;
  for (int s = 0; s < kSessions; ++s) {
    for (const Load& l : in.base[s]) loads.push_back({s, "load " + l.first + " " + l.second});
  }
  {
    ScopedSpan span(tracer, "request load base facts", "request");
    if (!RoundTrip(live, loads)) return -1;
  }
  {
    ScopedSpan span(tracer, "request first update", "request");
    if (!RoundTrip(live, {{0, "update"}})) return -1;
  }
  return Seconds(t0, Clock::now());
}

/// Drives the schedule open loop: each op is queued on its session when
/// due, whatever is still outstanding. A session sends its queued ops in
/// order; the lines of one write go one at a time (each after the answer
/// to the previous one), while the next op's first line may follow
/// without waiting. Returns false if the server stopped answering.
bool Drive(Live* live, const std::vector<Op>& ops, std::vector<Served>* served,
           std::vector<double>* lag_ms, double limit_s, Tracer* tracer) {
  served->assign(ops.size(), Served{});
  for (Session& s : live->sessions) fcntl(s.fd, F_SETFL, O_NONBLOCK);
  std::deque<size_t> waiting[kSessions];
  std::vector<size_t> next_line(ops.size(), 0);
  const Clock::time_point start = Clock::now();
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(ops[i].due_s));
  };
  auto pump = [&](int s) {
    Session& session = live->sessions[s];
    while (!waiting[s].empty()) {
      const size_t i = waiting[s].front();
      const size_t l = next_line[i];
      if (l > 0 && (*served)[i].responses.size() < l) return true;
      const Clock::time_point now = Clock::now();
      if (l == 0) (*served)[i].sent = now;
      session.pending.push_back({i, now});
      if (!SendAll(session.fd, ops[i].lines[l] + "\n")) return false;
      if (++next_line[i] < ops[i].lines.size()) return true;
      waiting[s].pop_front();
    }
    return true;
  };
  size_t next = 0, finished = 0;
  while (finished < ops.size()) {
    const Clock::time_point now = Clock::now();
    if (Seconds(start, now) > limit_s) return false;
    for (; next < ops.size() && due(next) <= now; ++next) {
      (*served)[next].due = due(next);
      lag_ms->push_back(Seconds(due(next), Clock::now()) * 1e3);
      waiting[ops[next].session].push_back(next);
      if (!pump(ops[next].session)) return false;
    }
    int timeout_ms = 50;
    if (next < ops.size()) {
      const double wait = Seconds(Clock::now(), due(next)) * 1e3;
      timeout_ms = static_cast<int>(std::max(0.0, std::min(50.0, wait)));
    }
    pollfd fds[kSessions];
    for (int s = 0; s < kSessions; ++s) fds[s] = {live->sessions[s].fd, POLLIN, 0};
    if (poll(fds, kSessions, timeout_ms) < 0 && errno != EINTR) return false;
    for (int s = 0; s < kSessions; ++s) {
      if ((fds[s].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Session& session = live->sessions[s];
      bool protocol_ok = true;
      const bool alive = Drain(&session, [&](const std::string& response) {
        if (session.pending.empty()) {
          protocol_ok = false;
          return;
        }
        const Pending p = session.pending.front();
        session.pending.pop_front();
        Served& out = (*served)[p.op];
        out.done = Clock::now();
        out.responses.push_back(response);
        out.line_s.push_back(Seconds(p.sent, out.done));
        if (out.responses.size() == ops[p.op].lines.size()) {
          out.finished = true;
          ++finished;
          // Recorded once the answer is in, off the served path. The
          // span covers queueing in the server as well as the net layer,
          // so it is attributed to no layer.
          if (tracer != nullptr) {
            const std::string& last = ops[p.op].lines.back();
            tracer->Add("request " + last.substr(0, last.find(' ')), "request",
                        out.sent, out.done, static_cast<int64_t>(p.op));
          }
        }
      });
      if (!alive || !protocol_ok || !pump(s)) return false;
    }
  }
  return true;
}

/// The in-process replay: the same loads and updates in schedule order on
/// an engine configured like the served one (it checkpoints inside
/// Update at the same cadence), recording what every read must answer.
struct ReplayStats {
  /// Summed Update time of each full window of kWindowEpochs epochs,
  /// split by whether the window was traced.
  std::vector<double> traced_window_s, untraced_window_s;
  /// Update times of the epochs that checkpoint and of the others.
  std::vector<double> checkpoint_update_s, plain_update_s;
  std::vector<double> update_s, add_facts_s, pin_view_us;
  std::vector<double> read_s, write_s, log_bytes_per_fact;
  uint64_t strata_incremental = 0, strata_recomputed = 0, strata_skipped = 0;
  uint64_t seeded_rows = 0;
  double range_share = 0;
  double rekinds = 0;
  std::vector<Digest> final_state;
};

/// Runs one replay; `expected[i]` receives what op i must be answered.
/// With a tracer, every other window of epochs is traced.
bool Replay(const Inputs& in, const std::vector<Op>& ops, Tracer* tracer,
            ReplayStats* out, std::vector<std::vector<std::string>>* expected) {
  const std::string dir = in.dir + "/replay";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Program program;
  if (!Ok(carac::datalog::ParseDatalogFile(in.program_path, &program),
          "replay parse")) {
    return false;
  }
  core::Engine engine(&program, ServeConfig(dir, kCheckpointEvery));
  if (!Ok(engine.Prepare(), "replay Prepare")) return false;
  net::ServeContext ctx;
  ctx.program = &program;
  ctx.engine = &engine;
  ctx.snapshot_reads = true;
  ctx.deterministic_replies = true;

  uint64_t epochs = 0;
  uint64_t facts_since_checkpoint = 0;
  double window = 0;
  size_t window_epochs = 0;
  bool window_traced = tracer != nullptr;
  Tracer* span_tracer = tracer;
  const size_t windows_before =
      out->traced_window_s.size() + out->untraced_window_s.size();
  auto load = [&](const Load& l, double* seconds) {
    carac::datalog::PredicateId rel = 0;
    bool found = false;
    for (size_t p = 0; p < program.NumPredicates(); ++p) {
      if (program.PredicateName(static_cast<carac::datalog::PredicateId>(p)) ==
          l.first) {
        rel = static_cast<carac::datalog::PredicateId>(p);
        found = true;
      }
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<carac::storage::Tuple> facts;
    {
      ScopedSpan span(span_tracer, "analysis::ReadFactsCsv", "analysis");
      if (!found || !Ok(carac::analysis::ReadFactsCsv(l.second, &program, rel, &facts),
                        "replay read " + l.second)) {
        return std::string("err\n");
      }
    }
    const Clock::time_point t1 = Clock::now();
    bool ok;
    {
      ScopedSpan span(span_tracer, "core::Engine::AddFacts", "core");
      ok = Ok(engine.AddFacts(rel, facts), "replay AddFacts");
    }
    const Clock::time_point t2 = Clock::now();
    out->add_facts_s.push_back(Seconds(t1, t2));
    *seconds = Seconds(t0, t2);
    facts_since_checkpoint += facts.size();
    const size_t total =
        program.db().Get(rel, carac::storage::DbKind::kDerived).size();
    return ok ? "(" + std::to_string(total) + " facts total)" : std::string("err\n");
  };
  auto update = [&](bool traffic, double* seconds) {
    // The engine checkpoints inside this epoch's Update; the fact log
    // then holds every fact since the last checkpoint.
    const bool checkpoints = (epochs + 1) % kCheckpointEvery == 0;
    if (checkpoints) {
      std::error_code ec;
      const double log_bytes =
          static_cast<double>(fs::file_size(dir + "/factlog.bin", ec));
      if (!ec && facts_since_checkpoint > 0) {
        out->log_bytes_per_fact.push_back(
            log_bytes / static_cast<double>(facts_since_checkpoint));
      }
    }
    core::EpochReport report;
    bool ok;
    {
      ScopedSpan span(span_tracer, "core::Engine::Update", "core");
      const Clock::time_point t0 = Clock::now();
      ok = Ok(engine.Update(&report), "replay Update");
      *seconds = Seconds(t0, Clock::now());
    }
    if (ok) ++epochs;
    if (checkpoints) facts_since_checkpoint = 0;
    if (traffic) {
      out->update_s.push_back(*seconds);
      (checkpoints ? out->checkpoint_update_s : out->plain_update_s).push_back(*seconds);
      window += *seconds;
      if (++window_epochs == kWindowEpochs) {
        (window_traced ? out->traced_window_s : out->untraced_window_s).push_back(window);
        window = 0;
        window_epochs = 0;
        window_traced = tracer != nullptr && !window_traced;
        span_tracer = window_traced ? tracer : nullptr;
      }
      out->strata_incremental += report.strata_incremental;
      out->strata_recomputed += report.strata_recomputed;
      out->strata_skipped += report.strata_skipped;
      out->seeded_rows += report.seeded_rows;
    }
    return ok;
  };

  double seconds = 0;
  const size_t traffic_loads = out->add_facts_s.size();
  for (int s = 0; s < kSessions; ++s) {
    for (const Load& l : in.base[s]) load(l, &seconds);
  }
  out->add_facts_s.resize(traffic_loads);  // base loads are not traffic
  if (!update(false, &seconds)) return false;
  expected->assign(ops.size(), {});
  for (size_t o = 0; o < ops.size(); ++o) {
    const Op& op = ops[o];
    std::vector<std::string>& want = (*expected)[o];
    if (op.kind == Kind::kWrite) {
      double write_s = 0;
      for (const Load& l : op.loads) {
        want.push_back(load(l, &seconds));
        write_s += seconds;
      }
      if (!update(true, &seconds)) return false;
      want.push_back("ok\n");
      out->write_s.push_back(write_s + seconds);
      continue;
    }
    {
      const Clock::time_point t0 = Clock::now();
      engine.PinReadView();
      out->pin_view_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    net::WireResponse response;
    const Clock::time_point t0 = Clock::now();
    net::ExecuteServeLine(&ctx, op.lines[0], &response);
    std::string wire = std::move(response).Finish();
    out->read_s.push_back(Seconds(t0, Clock::now()));
    want.push_back(std::move(wire));
  }
  if (window_epochs > 0 &&
      out->traced_window_s.size() + out->untraced_window_s.size() == windows_before) {
    // A short run: fewer epochs than a window.
    (window_traced ? out->traced_window_s : out->untraced_window_s).push_back(window);
  }
  uint64_t range = 0, point = 0;
  for (const auto& [key, probes] : engine.profiler().counters()) {
    range += probes.range_probes;
    point += probes.point_probes;
  }
  out->range_share =
      range + point > 0 ? static_cast<double>(range) / static_cast<double>(range + point) : 0;
  out->rekinds = engine.adaptive_policy() != nullptr
                     ? static_cast<double>(engine.adaptive_policy()->events().size())
                     : 0;
  out->final_state = DigestAll(program, engine);
  return true;
}

/// Does the served answer match the replay? A load answer carries the
/// relation's fact total; the rest must match byte for byte.
bool Matches(const std::string& served, const std::string& expected) {
  if (expected.size() > 0 && expected[0] == '(') {
    return served.find(expected) != std::string::npos &&
           served.size() >= 3 && served.compare(served.size() - 3, 3, "ok\n") == 0;
  }
  return served == expected;
}

}  // namespace

void RunServe(const Options& options, Report* report) {
  std::unique_ptr<Tracer> tracer_store;
  if (options.trace) tracer_store = std::make_unique<Tracer>();
  Tracer* const tracer = tracer_store.get();
  const double traffic_s =
      std::max(2.0, kTrafficShare * static_cast<double>(options.seconds));

  Inputs in;
  {
    ScopedSpan span(tracer, "inputs", "analysis");
    if (!MakeInputs(options, traffic_s, &in)) {
      report->MarkIncorrect("could not write the serve inputs under " + in.dir);
      return;
    }
  }
  const std::string state_dir = in.dir + "/state";
  const std::string socket_path =
      options.out_dir + "/s" + std::to_string(getpid()) + ".sock";
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    report->MarkIncorrect("socket path too long: " + socket_path);
    return;
  }

  // Set-ups; only the last one before the traffic is kept. Later ones
  // use their own state directory, so the served one stays intact.
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  auto set_up = [&](const std::string& dir) {
    live = std::make_unique<Live>();
    live->socket_path = socket_path;
    ScopedSpan span(tracer, "set-up", "core");
    const double s = SetUp(in, dir, live.get(), tracer);
    report->Check(s >= 0, "serve set-up");
    if (s < 0) {
      report->MarkIncorrect("serve set-up failed");
      return false;
    }
    setup_s.push_back(s);
    return true;
  };
  auto set_up_and_discard = [&](int n) {
    for (int i = 0; i < n; ++i) {
      if (!set_up(in.dir + "/setup-state")) return false;
      live.reset();
      malloc_trim(0);
    }
    return true;
  };
  if (!set_up_and_discard(kSetupsBefore - 1) || !set_up(state_dir)) return;

  // The open-loop traffic.
  std::vector<Served> served;
  std::vector<double> lag_ms;
  const Clock::time_point traffic_start = Clock::now();
  const bool drove =
      Drive(live.get(), in.ops, &served, &lag_ms, traffic_s + 60.0, tracer);
  if (!drove) report->MarkIncorrect("the server stopped answering");
  live->Stop();
  // Peak RSS of the serving process so far; the checks below load more
  // engines and must not count.
  const double peak_rss_mb = PeakRssMb();
  const std::vector<Digest> served_state = DigestAll(*live->program, *live->engine);
  live.reset();
  malloc_trim(0);
  if (!set_up_and_discard(kSetupsAfterTraffic)) return;

  // The replays: what every response must be, plus the engine-level costs.
  const std::vector<Op>& ops = in.ops;
  ReplayStats rs;
  std::vector<std::vector<std::string>> expected;
  for (int r = 0; r < kReplays; ++r) {
    std::vector<std::vector<std::string>> answers;
    if (!Replay(in, ops, tracer, &rs, &answers)) {
      report->MarkIncorrect("replay failed");
      return;
    }
    malloc_trim(0);
    if (r == 0) {
      expected = std::move(answers);
    } else {
      report->Check(answers == expected, "replay " + std::to_string(r) +
                                             " answers differ from replay 0");
    }
  }
  if (!set_up_and_discard(kSetupsAfterReplays)) return;

  std::vector<double> read_ms, write_ms;
  std::map<std::string, std::vector<double>> rtt_us;
  std::vector<double> read_overhead_us, write_overhead_us;
  double overhead_s = 0;
  Clock::time_point last_done = traffic_start;
  size_t read_index = 0, write_index = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const Served& out = served[i];
    const std::vector<std::string>& want = expected[i];
    bool ok = out.finished && out.responses.size() == want.size();
    for (size_t l = 0; ok && l < want.size(); ++l) {
      ok = Matches(out.responses[l], want[l]);
    }
    report->Check(ok, "session " + std::to_string(op.session) + " '" +
                          op.lines[0] + "': got '" +
                          (out.responses.empty() ? "" : out.responses.back().substr(0, 80)) +
                          "' want '" + want.back().substr(0, 80) + "'");
    const double replay_s = op.kind == Kind::kWrite ? rs.write_s[write_index++]
                                                    : rs.read_s[read_index++];
    if (!out.finished) continue;
    last_done = std::max(last_done, out.done);
    const double latency_ms = Seconds(out.due, out.done) * 1e3;
    double line_total_s = 0;
    for (size_t l = 0; l < op.lines.size(); ++l) {
      const std::string verb = op.lines[l].substr(0, op.lines[l].find(' '));
      rtt_us[verb].push_back(out.line_s[l] * 1e6);
      line_total_s += out.line_s[l];
    }
    overhead_s += line_total_s - replay_s;
    if (op.kind == Kind::kWrite) {
      write_ms.push_back(latency_ms);
      write_overhead_us.push_back((line_total_s - replay_s) * 1e6);
    } else {
      read_ms.push_back(latency_ms);
      read_overhead_us.push_back((line_total_s - replay_s) * 1e6);
    }
  }
  std::cerr << "perfbench: offered " << in.ops.size() / traffic_s << " ops/s, served "
            << in.ops.size() << " ops in " << Seconds(traffic_start, last_done)
            << " s (" << in.ops.size() / Seconds(traffic_start, last_done)
            << " ops/s); read p50/p99 " << Percentile(read_ms, 0.5) << "/"
            << Percentile(read_ms, 0.99) << " ms, write p50/p99 "
            << Percentile(write_ms, 0.5) << "/" << Percentile(write_ms, 0.99)
            << " ms, generator lag p99 " << Percentile(lag_ms, 0.99) << " ms\n";

  // Final state: served == replay == from-scratch batch == restored.
  report->Check(served_state == rs.final_state, "served final state vs replay");
  const std::map<std::string, uint64_t> committed = LoadExpectedCounts(options);
  const auto it = committed.find("serve-rows-" + std::to_string(options.seconds) + "s");
  if (it != committed.end() && options.rate == 0) {
    uint64_t rows = 0;
    for (const Digest& d : served_state) rows += d.rows;
    report->Check(rows == it->second, "served final state has " + std::to_string(rows) +
                                          " rows, committed expectation " +
                                          std::to_string(it->second));
  }
  {
    Program program;
    bool ok = Ok(carac::datalog::ParseDatalogFile(in.program_path, &program),
                 "scratch parse");
    core::Engine engine(&program, core::EngineConfig{});
    ok = ok && Ok(engine.Prepare(), "scratch Prepare");
    for (const Load& l : in.all_loads) {
      for (size_t p = 0; ok && p < program.NumPredicates(); ++p) {
        const auto id = static_cast<carac::datalog::PredicateId>(p);
        if (program.PredicateName(id) != l.first) continue;
        std::vector<carac::storage::Tuple> facts;
        ok = Ok(carac::analysis::ReadFactsCsv(l.second, &program, id, &facts),
                "scratch read") &&
             Ok(engine.AddFacts(id, facts), "scratch AddFacts");
      }
    }
    if (ok) {
      ScopedSpan span(tracer, "core::Engine::Run (from scratch)", "core");
      ok = Ok(engine.Run(), "scratch Run");
    }
    report->Check(ok && DigestAll(program, engine) == served_state,
                  "served final state vs from-scratch evaluation");
  }
  std::vector<double> recover_s, restore_s;
  double epochs_replayed = 0;
  for (int i = 0; i < kRecoveries; ++i) {
    Program program;
    bool ok = Ok(carac::datalog::ParseDatalogFile(in.program_path, &program),
                 "recover parse");
    const Clock::time_point t0 = Clock::now();
    core::Engine engine(&program, ServeConfig(state_dir, kCheckpointEvery));
    {
      ScopedSpan span(tracer, "core::Engine::Prepare", "core");
      ok = ok && Ok(engine.Prepare(), "recover Prepare");
    }
    const Clock::time_point t1 = Clock::now();
    core::RestoreInfo info;
    {
      ScopedSpan span(tracer, "core::Engine::Restore", "core");
      ok = ok && Ok(engine.Restore(&info), "Restore");
    }
    const Clock::time_point t2 = Clock::now();
    recover_s.push_back(Seconds(t0, t2));
    restore_s.push_back(Seconds(t1, t2));
    epochs_replayed = static_cast<double>(info.epochs_replayed);
    if (i == 0) {
      report->Check(ok && DigestAll(program, engine) == served_state,
                    "served final state vs restored state");
    }
  }
  std::error_code ec;
  const double snapshot_mb =
      static_cast<double>(fs::file_size(state_dir + "/snapshot.bin", ec)) / (1 << 20);

  // An untraced run traces no window.
  const std::vector<double>& windows = rs.untraced_window_s;
  uint64_t final_rows = 0;
  for (const Digest& d : served_state) final_rows += d.rows;
  std::cerr << "perfbench: serve final state " << final_rows << " rows; " << ops.size() << " ops, " << write_ms.size()
            << " writes, " << read_ms.size() << " reads, " << windows.size()
            << " epoch windows\n";
  fs::remove_all(in.dir);

  if (!options.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("fixpoint_s", Median(windows), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }
  report->Set("read_p50_ms", Percentile(read_ms, 0.50), "ms");
  report->Set("read_p99_ms", Percentile(read_ms, 0.99), "ms");
  report->Set("write_p50_ms", Percentile(write_ms, 0.50), "ms");
  report->Set("write_p99_ms", Percentile(write_ms, 0.99), "ms");
  report->Set("recover_s", Median(recover_s), "s");
  for (const char* verb : {"count", "dump", "load", "update"}) {
    report->Set(std::string("net.rtt_us.") + verb, Median(rtt_us[verb]), "us");
  }
  report->Set("net.overhead_us.read", Median(read_overhead_us), "us");
  report->Set("net.overhead_us.write", Median(write_overhead_us), "us");
  report->Set("net.generator_lag_ms", Percentile(lag_ms, 0.99), "ms");
  report->Set("core.add_facts_ms", Median(rs.add_facts_s) * 1e3, "ms");
  report->Set("core.update_ms_p50", Percentile(rs.update_s, 0.50) * 1e3, "ms");
  report->Set("core.update_ms_p99", Percentile(rs.update_s, 0.99) * 1e3, "ms");
  report->Set("core.pin_read_view_us", Median(rs.pin_view_us), "us");
  report->Set("core.checkpoint_ms",
              (Median(rs.checkpoint_update_s) - Median(rs.plain_update_s)) * 1e3, "ms");
  report->Set("core.strata_incremental", static_cast<double>(rs.strata_incremental), "count");
  report->Set("core.strata_recomputed", static_cast<double>(rs.strata_recomputed), "count");
  report->Set("core.strata_skipped", static_cast<double>(rs.strata_skipped), "count");
  report->Set("core.seeded_rows", static_cast<double>(rs.seeded_rows), "count");
  report->Set("core.restore_s", Median(restore_s), "s");
  report->Set("core.epochs_replayed", epochs_replayed, "count");
  report->Set("storage.range_share", rs.range_share, "ratio");
  report->Set("storage.factlog_bytes_per_fact", Median(rs.log_bytes_per_fact), "B");
  report->Set("storage.snapshot_mb", snapshot_mb, "MB");
  report->Set("optimizer.rekinds", rs.rekinds, "count");
  // The served path records no spans, so tracing can only slow the
  // replay: compare its traced and untraced windows.
  const double untraced = Median(rs.untraced_window_s);
  report->Set("trace.overhead_share",
              untraced > 0 ? (Median(rs.traced_window_s) - untraced) / untraced : 0,
              "ratio");
  FinishTrace(*tracer, options, report);
  // Request spans overlap and include queueing in the server, so the net
  // layer's share is taken as served time minus the same calls replayed
  // in-process, summed over requests.
  report->Set("net.self_s", overhead_s, "s");
}

}  // namespace perfbench
