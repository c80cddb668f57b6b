#include "layer_drive.h"

#include <cstring>
#include <fstream>
#include <optional>

#include "common/json.h"
#include "common/thread_pool.h"
#include "engine/data_mining_system.h"
#include "minerule/parser.h"
#include "minerule/translator.h"
#include "mining/core_operator.h"
#include "mining/simple_miner.h"
#include "postprocess/postprocessor.h"
#include "preprocess/query_gen.h"

namespace e2e {

using minerule::Result;
using minerule::Row;
using minerule::Status;
namespace mr = minerule::mr;
namespace mining = minerule::mining;
namespace sql = minerule::sql;

int64_t SpanRecorder::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                            int64_t run) {
  Span span;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.run = run;
  span.name = name;
  span.start_us = NowMicros();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanRecorder::End(int64_t id) {
  Span& span = spans_[static_cast<size_t>(id - 1)];
  span.end_us = NowMicros();
  return static_cast<double>(span.end_us - span.start_us) / 1e3;
}

void SpanRecorder::Count(int64_t id, const std::string& key, double value) {
  spans_[static_cast<size_t>(id - 1)].counts[key] = value;
}

Status SpanRecorder::WriteJson(const std::string& path,
                               const std::string& workload,
                               uint64_t seed) const {
  minerule::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(workload);
  w.Key("seed").Int(static_cast<int64_t>(seed));
  w.Key("spans").BeginArray();
  for (const Span& span : spans_) {
    w.BeginObject();
    w.Key("id").Int(span.id);
    w.Key("parent").Int(span.parent);
    w.Key("run").Int(span.run);
    w.Key("name").String(span.name);
    w.Key("start_us").Int(span.start_us);
    w.Key("end_us").Int(span.end_us);
    w.Key("counts").BeginObject();
    for (const auto& [key, value] : span.counts) w.Key(key).Double(value);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << "\n";
  out.close();
  if (!out) return Status::Internal("cannot write spans to " + path);
  return Status::OK();
}

void ConfigureLikeDataMiningSystem(sql::SqlEngine* engine) {
  const mr::MiningOptions options;
  engine->set_collect_operator_stats(true);
  engine->set_num_threads(options.num_threads);
  engine->set_vectorized(options.vectorized_sql);
  engine->set_cost_based(options.cost_based_sql);
}

namespace {

Status IntAt(const Row& row, size_t index, int64_t* out) {
  if (index >= row.size() ||
      row[index].type() != minerule::DataType::kInteger) {
    return Status::Internal("encoded table column is not an integer");
  }
  *out = row[index].AsInteger();
  return Status::OK();
}

/// The encoded-table fetch at the SQL-to-core boundary: the same SELECTs
/// over the same tables that the kernel issues before the core operator.
Status FetchEncoded(sql::SqlEngine* engine,
                    const mr::PreprocessProgram& program,
                    const mr::Directives& directives,
                    mining::CodedSourceData* data, int64_t* rows_read) {
  auto select = [&](const std::string& text) -> Result<sql::QueryResult> {
    MR_ASSIGN_OR_RETURN(sql::QueryResult result, engine->Execute(text));
    *rows_read += static_cast<int64_t>(result.rows.size());
    return result;
  };
  if (!program.coded_source.empty()) {
    MR_ASSIGN_OR_RETURN(sql::QueryResult coded,
                        select("SELECT Gid, Bid FROM " + program.coded_source));
    data->simple_pairs.reserve(coded.rows.size());
    for (const Row& row : coded.rows) {
      int64_t gid = 0, bid = 0;
      MR_RETURN_IF_ERROR(IntAt(row, 0, &gid));
      MR_RETURN_IF_ERROR(IntAt(row, 1, &bid));
      data->simple_pairs.emplace_back(static_cast<mining::Gid>(gid),
                                      static_cast<mining::ItemId>(bid));
    }
    return Status::OK();
  }
  auto fetch_role = [&](const std::string& table, const char* item_col,
                        std::vector<mining::CodedSourceData::RoleRow>* out)
      -> Status {
    const std::string cols = directives.C
                                 ? "Gid, Cid, " + std::string(item_col)
                                 : "Gid, " + std::string(item_col);
    MR_ASSIGN_OR_RETURN(sql::QueryResult rows,
                        select("SELECT " + cols + " FROM " + table));
    out->reserve(rows.rows.size());
    for (const Row& row : rows.rows) {
      int64_t gid = 0, cid = mining::kNoCluster, item = 0;
      size_t item_index = 1;
      MR_RETURN_IF_ERROR(IntAt(row, 0, &gid));
      if (directives.C) {
        MR_RETURN_IF_ERROR(IntAt(row, 1, &cid));
        item_index = 2;
      }
      MR_RETURN_IF_ERROR(IntAt(row, item_index, &item));
      out->push_back({static_cast<mining::Gid>(gid),
                      static_cast<mining::Cid>(cid),
                      static_cast<mining::ItemId>(item)});
    }
    return Status::OK();
  };
  MR_RETURN_IF_ERROR(
      fetch_role(program.coded_source_b, "Bid", &data->body_rows));
  if (!program.coded_source_h.empty()) {
    MR_RETURN_IF_ERROR(
        fetch_role(program.coded_source_h, "Hid", &data->head_rows));
  }
  if (!program.cluster_couples.empty()) {
    MR_ASSIGN_OR_RETURN(sql::QueryResult couples,
                        select("SELECT Gid, BCid, HCid FROM " +
                               program.cluster_couples));
    for (const Row& row : couples.rows) {
      int64_t gid = 0, bcid = 0, hcid = 0;
      MR_RETURN_IF_ERROR(IntAt(row, 0, &gid));
      MR_RETURN_IF_ERROR(IntAt(row, 1, &bcid));
      MR_RETURN_IF_ERROR(IntAt(row, 2, &hcid));
      data->cluster_couples.emplace_back(static_cast<mining::Gid>(gid),
                                         static_cast<mining::Cid>(bcid),
                                         static_cast<mining::Cid>(hcid));
    }
  }
  if (!program.input_rules.empty()) {
    const std::string cols =
        directives.C ? "Gid, BCid, HCid, Bid, Hid" : "Gid, Bid, Hid";
    MR_ASSIGN_OR_RETURN(
        sql::QueryResult rules,
        select("SELECT " + cols + " FROM " + program.input_rules));
    for (const Row& row : rules.rows) {
      mining::GeneralInput::ElementaryOccurrence occ;
      int64_t gid = 0, bcid = mining::kNoCluster, hcid = mining::kNoCluster;
      int64_t bid = 0, hid = 0;
      size_t next = 0;
      MR_RETURN_IF_ERROR(IntAt(row, next++, &gid));
      if (directives.C) {
        MR_RETURN_IF_ERROR(IntAt(row, next++, &bcid));
        MR_RETURN_IF_ERROR(IntAt(row, next++, &hcid));
      }
      MR_RETURN_IF_ERROR(IntAt(row, next++, &bid));
      MR_RETURN_IF_ERROR(IntAt(row, next++, &hid));
      occ.gid = static_cast<mining::Gid>(gid);
      occ.bcid = static_cast<mining::Cid>(bcid);
      occ.hcid = static_cast<mining::Cid>(hcid);
      occ.bid = static_cast<mining::ItemId>(bid);
      occ.hid = static_cast<mining::ItemId>(hid);
      data->input_rules.push_back(occ);
    }
  }
  return Status::OK();
}

/// Shared-pool busy time and utilization attributed to one phase by
/// snapshot delta, as the kernel attributes it to the core phase.
class PoolPhase {
 public:
  PoolPhase() : before_(minerule::SharedThreadPool().Stats()) {}
  void Report(const std::string& phase, double wall_ms,
              LayerMetrics* metrics) const {
    const minerule::ThreadPoolStats after = minerule::SharedThreadPool().Stats();
    const double busy_ms =
        static_cast<double>(after.busy_micros - before_.busy_micros) / 1e3;
    const int workers = minerule::SharedThreadPool().size();
    (*metrics)["common." + phase + ".pool_busy_ms"] = busy_ms;
    (*metrics)["common." + phase + ".pool_utilization"] =
        wall_ms > 0 && workers > 0 ? busy_ms / (wall_ms * workers) : 0;
  }

 private:
  minerule::ThreadPoolStats before_;
};

}  // namespace

std::string OrdinalQueryId(const std::string& id,
                           std::map<std::string, int>* seen) {
  const int ordinal = ++(*seen)[id];
  return ordinal == 1 ? id : id + "-" + std::to_string(ordinal);
}

void CoreCounts(const mining::CoreStats& core, LayerMetrics* metrics) {
  int64_t candidates = 0, kept = 0, levels = 0;
  if (core.used_general) {
    candidates = core.general.elementary_candidates;
    kept = core.general.elementary_rules;
    levels = 1;
    for (const auto& set : core.general.sets) {
      candidates += set.candidates;
      kept += set.kept;
      levels = std::max<int64_t>(levels, set.body_size + set.head_size - 1);
    }
  } else {
    for (int64_t c : core.simple.candidates_per_level) candidates += c;
    for (int64_t k : core.simple.large_per_level) kept += k;
    levels = static_cast<int64_t>(core.simple.candidates_per_level.size());
  }
  (*metrics)["mining.candidates"] = static_cast<double>(candidates);
  (*metrics)["mining.kept"] = static_cast<double>(kept);
  (*metrics)["mining.kept_per_candidate"] =
      candidates > 0 ? static_cast<double>(kept) / static_cast<double>(candidates)
                     : 0;
  (*metrics)["mining.levels"] = static_cast<double>(levels);
}

Status DriveLayers(minerule::Catalog* catalog, sql::SqlEngine* engine,
                   const std::string& statement, int64_t run,
                   SpanRecorder* spans, LayerMetrics* metrics) {
  const mr::MiningOptions options;
  metrics->clear();
  const int64_t root = spans->Begin("mine_rule", 0, run);

  // --- minerule: parser and translator ---------------------------------
  int64_t span = spans->Begin("minerule.parse", root, run);
  Result<mr::MineRuleStatement> parsed = mr::ParseMineRule(statement);
  (*metrics)["minerule.parse_ms"] = spans->End(span);
  MR_RETURN_IF_ERROR(parsed.status());
  const mr::MineRuleStatement& stmt = *parsed;

  span = spans->Begin("minerule.translate", root, run);
  mr::Translator translator(
      catalog, [engine](const std::string& view) -> Result<minerule::Schema> {
        MR_ASSIGN_OR_RETURN(sql::QueryResult probe,
                            engine->Execute("SELECT * FROM " + view +
                                            " LIMIT 0"));
        return probe.schema;
      });
  Result<mr::Translation> translated = translator.Translate(stmt);
  (*metrics)["minerule.translate_ms"] = spans->End(span);
  MR_RETURN_IF_ERROR(translated.status());
  const mr::Translation& translation = *translated;

  // --- preprocess: the generated program, query by query ---------------
  const int64_t pre = spans->Begin("preprocess", root, run);
  std::optional<PoolPhase> pool(std::in_place);
  span = spans->Begin("preprocess.generate", pre, run);
  Result<mr::PreprocessProgram> generated =
      mr::GeneratePreprocessProgram(stmt, translation);
  spans->End(span);
  MR_RETURN_IF_ERROR(generated.status());
  const mr::PreprocessProgram& program = *generated;
  for (const mr::GeneratedQuery& q : program.drops) {
    MR_RETURN_IF_ERROR(engine->Execute(q.sql).status());
  }
  for (const mr::GeneratedQuery& q : program.setup) {
    MR_RETURN_IF_ERROR(engine->Execute(q.sql).status());
  }
  int64_t total_groups = 0;
  std::map<std::string, int> seen;
  for (const mr::GeneratedQuery& q : program.queries) {
    const std::string id = OrdinalQueryId(q.id, &seen);
    span = spans->Begin("preprocess." + id, pre, run);
    Result<sql::QueryResult> result = engine->Execute(q.sql);
    const double ms = spans->End(span);
    MR_RETURN_IF_ERROR(result.status());
    const int64_t rows = result->affected_rows > 0
                             ? result->affected_rows
                             : static_cast<int64_t>(result->rows.size());
    spans->Count(span, "rows", static_cast<double>(rows));
    (*metrics)["preprocess." + id + "_ms"] = ms;
    (*metrics)["preprocess." + id + "_rows"] = static_cast<double>(rows);
    if (q.computes_group_total) {
      // The :totg / :mingroups host-variable step of Appendix A.
      MR_ASSIGN_OR_RETURN(minerule::Value totg,
                          engine->GetHostVariable("totg"));
      if (totg.type() != minerule::DataType::kInteger) {
        return Status::Internal(":totg is not an integer");
      }
      total_groups = totg.AsInteger();
      engine->SetHostVariable(
          "mingroups", minerule::Value::Integer(mining::MinGroupCount(
                           stmt.min_support, total_groups)));
    }
  }
  double phase_ms = spans->End(pre);
  (*metrics)["preprocess.total_ms"] = phase_ms;
  pool->Report("preprocess", phase_ms, metrics);

  // --- sql: the encoded-table fetch -------------------------------------
  span = spans->Begin("sql.fetch", root, run);
  pool.emplace();
  mining::CodedSourceData data;
  int64_t fetch_rows = 0;
  Status fetched = FetchEncoded(engine, program, translation.directives,
                                &data, &fetch_rows);
  phase_ms = spans->End(span);
  MR_RETURN_IF_ERROR(fetched);
  data.total_groups = total_groups;
  spans->Count(span, "rows", static_cast<double>(fetch_rows));
  (*metrics)["sql.fetch_ms"] = phase_ms;
  (*metrics)["sql.fetch_rows"] = static_cast<double>(fetch_rows);
  pool->Report("fetch", phase_ms, metrics);

  // --- mining: the core operator ----------------------------------------
  mining::CoreDirectives directives;
  directives.general = !translation.directives.IsSimpleClass();
  directives.has_clusters = translation.directives.C;
  directives.distinct_head = translation.directives.H;
  directives.has_input_rules = translation.directives.M;
  directives.has_cluster_couples = translation.directives.K;
  mining::CoreOptions core_options;
  core_options.algorithm = options.algorithm;
  core_options.simple_options = options.simple_options;
  core_options.num_threads = options.num_threads;
  mining::CoreStats core_stats;
  span = spans->Begin("mining.core", root, run);
  pool.emplace();
  Result<std::vector<mining::MinedRule>> rules = mining::RunCoreOperator(
      data, directives, stmt.min_support, stmt.min_confidence, stmt.body_card,
      stmt.head_card, core_options, &core_stats);
  phase_ms = spans->End(span);
  MR_RETURN_IF_ERROR(rules.status());
  (*metrics)["mining.core_ms"] = phase_ms;
  CoreCounts(core_stats, metrics);
  for (const char* key : {"mining.candidates", "mining.kept", "mining.levels"}) {
    spans->Count(span, key, (*metrics)[key]);
  }
  spans->Count(span, "mining.rules", static_cast<double>(rules->size()));
  pool->Report("core", phase_ms, metrics);

  // --- postprocess: rule decoding into the output tables ----------------
  span = spans->Begin("postprocess", root, run);
  pool.emplace();
  mr::Postprocessor postprocessor(engine);
  Result<mr::PostprocessResult> output = postprocessor.Run(
      stmt, translation, *rules, total_groups, program);
  phase_ms = spans->End(span);
  MR_RETURN_IF_ERROR(output.status());
  int64_t post_rows = 0;
  for (const mr::QueryStat& q : output->stats) post_rows += q.rows;
  spans->Count(span, "rows", static_cast<double>(post_rows));
  (*metrics)["postprocess.total_ms"] = phase_ms;
  (*metrics)["postprocess.rows"] = static_cast<double>(post_rows);
  pool->Report("postprocess", phase_ms, metrics);

  (*metrics)["trace.drive_ms"] = spans->End(root);
  return Status::OK();
}

std::string TableBytes(const minerule::Catalog& catalog,
                       const std::string& name) {
  auto table = catalog.GetTable(name);
  if (!table.ok()) return "<missing " + name + ">";
  std::string out;
  for (const auto& column : (*table)->schema().columns()) {
    out += column.name + ":" + minerule::DataTypeName(column.type) + ";";
  }
  out += "\n";
  for (const Row& row : (*table)->rows()) {
    for (const minerule::Value& v : row) {
      out += std::to_string(static_cast<int>(v.type())) + "=";
      switch (v.type()) {
        case minerule::DataType::kDouble: {
          const double d = v.AsDouble();
          uint64_t bits = 0;
          std::memcpy(&bits, &d, sizeof(bits));
          out += std::to_string(bits);
          break;
        }
        default:
          out += v.ToString();
      }
      out += "|";
    }
    out += "\n";
  }
  return out;
}

}  // namespace e2e
