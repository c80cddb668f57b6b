// mrbench: one run of one end-to-end benchmark workload.
//
//   mrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <spans.json>]
//
// Prints "READY" on stdout when set-up is complete (so a parent process can
// time set-up from process start), then, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "mrbench: %s\nusage: mrbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : e2e::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown workload");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  const e2e::Outcome outcome = e2e::RunWorkload(options, [] {
    std::printf("READY\n");
    std::fflush(stdout);
  });

  minerule::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(outcome.correct);
  w.Key("attempted").Int(outcome.attempted);
  w.Key("failed").Int(outcome.failed);
  w.Key("metrics").BeginObject();
  for (const e2e::Metric& m : outcome.metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
