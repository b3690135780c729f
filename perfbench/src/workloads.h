// The benchmark's workloads (README.md describes each one).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

RunResult RunPaperTable(const Options& options);
RunResult RunServeScore(const Options& options);
RunResult RunServeChurn(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
