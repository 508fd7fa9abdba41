#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Digest DigestRows(const carac::storage::RelationReadView& rows) {
  Digest d;
  d.rows = rows.NumRows();
  for (uint32_t r = 0; r < rows.NumRows(); ++r) {
    const carac::storage::TupleView t = rows.View(r);
    uint64_t h = 0x84222325CBF29CE4ULL;
    for (size_t i = 0; i < t.size(); ++i) {
      h = Mix(h, static_cast<uint64_t>(t[i]) + i);
    }
    d.hash += h;
  }
  return d;
}

bool Ok(const carac::util::Status& status, const std::string& what) {
  if (!status.ok()) {
    std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
  }
  return status.ok();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

void Report::MarkIncorrect(const std::string& why) {
  correct_ = false;
  std::cerr << "perfbench: INCORRECT " << why << "\n";
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.10g", metric.first);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::map<std::string, uint64_t> LoadExpectedCounts(const Options& options) {
  std::map<std::string, uint64_t> counts;
  if (options.seed != kDefaultSeed || options.expected_file.empty()) {
    return counts;
  }
  std::ifstream in(options.expected_file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    uint64_t value = 0;
    if (fields >> key >> value) counts[key] = value;
  }
  return counts;
}

// ---- Tracing ----

const char* const kLayers[8] = {"analysis", "datalog", "ir",      "optimizer",
                                "backends", "core",    "storage", "net"};

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int32_t Tracer::Begin(const std::string& name, const std::string& layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = Now();
  spans_.push_back(std::move(span));
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = Now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::Add(const std::string& name, const std::string& layer,
                 Clock::time_point start, Clock::time_point end,
                 int64_t request) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  span.request = request;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t own = s.end_ns - s.start_ns - child_ns[i];
    self[s.layer] += static_cast<double>(std::max<int64_t>(own, 0)) * 1e-9;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_ns / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void FinishTrace(const Tracer& tracer, const Options& options,
                 Report* report) {
  const std::map<std::string, double> self = tracer.SelfSecondsByLayer();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    report->Set(std::string(layer) + ".self_s",
                it == self.end() ? 0.0 : it->second, "s");
  }
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count");
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (!tracer.Write(path)) {
    report->MarkIncorrect("could not write trace file " + path);
  } else {
    std::cerr << "perfbench: wrote " << tracer.size() << " spans to " << path
              << "\n";
  }
}

}  // namespace perfbench
