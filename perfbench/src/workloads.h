#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>

#include "bench_util.h"

namespace perfbench {

/// Evaluation threads of the analysis-parallel cells: the 4 vCPUs of the
/// host the benchmark was tuned on; never more than `nproc` there.
constexpr int kEvalThreads = 4;

/// Fewest batch passes a run makes, however short --seconds is.
constexpr size_t kMinPasses = 3;

/// jit-recovery and analysis-parallel.
void RunBatch(const Options& options, Report* report);

/// serve-incremental.
void RunServe(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
