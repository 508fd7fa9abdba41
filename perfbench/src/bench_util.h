// Shared plumbing of perfbench: clocks, order statistics, the
// result report (the JSON line printed last), seeds, output
// digests and span tracing.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/read_view.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Median of the samples (mean of the two middle ones for an even count);
/// 0 for an empty set.
double Median(std::vector<double> samples);

/// Nearest-rank percentile, `q` in (0, 1]; 0 for an empty set.
double Percentile(std::vector<double> samples, double q);

/// splitmix64 of `seed ^ salt`: derives one independent stream per input
/// from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// Order-independent content digest of a relation: row count plus the
/// wrapping sum of a per-tuple hash. Rows of a Derived store are distinct,
/// so two stores with the same digest hold the same set with
/// overwhelming probability, whatever their insertion order.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};
Digest DigestRows(const carac::storage::RelationReadView& rows);

/// Logs a failed status with `what` to stderr; returns status.ok().
bool Ok(const carac::util::Status& status, const std::string& what);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Deliberately corrupt what the engine computes, to prove the output
  /// checks fire (every run in this mode must report failures).
  bool corrupt = false;
  /// serve-incremental's offered load in requests/s; 0 keeps the
  /// workload's fixed rate. Only for measuring where the server
  /// saturates (see perfbench/README.md).
  double rate = 0;
  /// Scratch directory for serve inputs, durable state, sockets and the
  /// trace file (relative to the working directory).
  std::string out_dir = ".";
  /// Committed expected row counts for the default seed.
  std::string expected_file;
};

/// The default seed, whose expected row counts are committed.
constexpr uint64_t kDefaultSeed = 1;

/// Metrics plus the failed/attempted accounting of one run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; a false `ok` is a failure, logged to
  /// stderr with `what`.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_ && failed_ == 0; }
  void MarkIncorrect(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The result as one JSON line.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Expected output row counts keyed "<seed-independent input name>",
/// loaded from the committed file; empty when the seed is not the
/// default one.
std::map<std::string, uint64_t> LoadExpectedCounts(const Options& options);

// ---- Tracing ----
//
// Spans are recorded from the benchmark's own files around calls into
// the engine's public API (the traced run only). They stay in memory and
// are written out when the run ends. A span's self time is its duration
// minus the time its direct children cover.

struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  /// Serve request id; -1 outside serve.
  int64_t request = -1;
};

/// Single-threaded span recorder; null (tracing off) makes every
/// ScopedSpan a no-op, so untraced runs time exactly the same calls.
class Tracer {
 public:
  Tracer();
  int32_t Begin(const std::string& name, const std::string& layer);
  void End(int32_t id);
  /// Records a finished span with explicit times (overlapping request
  /// spans of the open-loop generator).
  void Add(const std::string& name, const std::string& layer,
           Clock::time_point start, Clock::time_point end, int64_t request);
  size_t size() const { return spans_.size(); }
  /// Sum of self time per layer, in seconds.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Chrome trace-event JSON; returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  int64_t Now() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& layer)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// The layers spans are attributed to: the engine's src/ modules.
extern const char* const kLayers[8];

/// Adds `<layer>.self_s` for every layer plus `trace.spans`, and writes
/// the spans to `<out_dir>/trace-<workload>-<seed>.json`.
void FinishTrace(const Tracer& tracer, const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
