#ifndef E2E_BENCH_WORKLOADS_H_
#define E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

/// Builds the workload's inputs from the seed, calls `ready` once set-up
/// (generation, load, one warm-up statement) is done, measures for
/// `seconds`, then checks the outputs. Notes on failed checks go to stderr.
Outcome RunWorkload(const RunOptions& options,
                    const std::function<void()>& ready);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOADS_H_
