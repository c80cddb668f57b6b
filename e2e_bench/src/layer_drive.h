#ifndef E2E_BENCH_LAYER_DRIVE_H_
#define E2E_BENCH_LAYER_DRIVE_H_

// The traced run's layer-by-layer drive of one MINE RULE statement. It
// calls the same public layer functions that DataMiningSystem calls, in the
// same order, and records a span and counts around each call from here, so
// the program itself carries no tracing code.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "mining/core_operator.h"
#include "relational/catalog.h"
#include "sql/engine.h"

namespace e2e {

/// Spans kept in memory and written as JSON when the run ends.
class SpanRecorder {
 public:
  struct Span {
    int64_t id = 0;
    int64_t parent = 0;  // 0 = root of its run
    int64_t run = 0;     // spans of one statement share this
    std::string name;
    int64_t start_us = 0;
    int64_t end_us = 0;
    std::map<std::string, double> counts;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int64_t Begin(const std::string& name, int64_t parent, int64_t run);
  /// Closes the span and returns its duration in milliseconds.
  double End(int64_t id);
  void Count(int64_t id, const std::string& key, double value);

  const std::vector<Span>& spans() const { return spans_; }
  minerule::Status WriteJson(const std::string& path,
                             const std::string& workload,
                             uint64_t seed) const;

 private:
  int64_t NowMicros() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-layer numbers of one drive, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Drives `statement` through parser, translator, preprocessor program,
/// encoded-table fetch, core operator and postprocessor on `engine`, with
/// default MiningOptions, recording spans under run id `run`.
minerule::Status DriveLayers(minerule::Catalog* catalog,
                             minerule::sql::SqlEngine* engine,
                             const std::string& statement, int64_t run,
                             SpanRecorder* spans, LayerMetrics* metrics);

/// The metric id of a generated query: its id, with an ordinal suffix from
/// the second occurrence within one program on (the second Q4b is Q4b-2).
/// `seen` counts the ids of the program so far.
std::string OrdinalQueryId(const std::string& id,
                           std::map<std::string, int>* seen);

/// The core operator's counts as per-layer metrics: mining.candidates,
/// mining.kept, mining.kept_per_candidate and mining.levels.
void CoreCounts(const minerule::mining::CoreStats& core, LayerMetrics* metrics);

/// Configures a fresh engine the way DataMiningSystem configures its own.
void ConfigureLikeDataMiningSystem(minerule::sql::SqlEngine* engine);

/// Exact byte image of a table (schema and every value's bits), for the
/// traced-versus-untraced identity check.
std::string TableBytes(const minerule::Catalog& catalog,
                       const std::string& name);

}  // namespace e2e

#endif  // E2E_BENCH_LAYER_DRIVE_H_
