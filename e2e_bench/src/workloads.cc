#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "checker.h"
#include "common/thread_pool.h"
#include "datagen/paper_example.h"
#include "datagen/quest_gen.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"
#include "layer_drive.h"
#include "server/server.h"
#include "server/session.h"

namespace e2e {
namespace {

using minerule::Catalog;
using minerule::Row;
using minerule::Status;
using minerule::Table;
namespace mr = minerule::mr;
namespace sql = minerule::sql;
namespace server = minerule::server;
namespace datagen = minerule::datagen;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Correctness bookkeeping; the first few failures are printed.
struct Check {
  bool ok = true;
  int printed = 0;
  void Fail(const std::string& what) {
    ok = false;
    if (printed++ < 5) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void Expect(const Status& status, const std::string& what) {
    if (!status.ok()) Fail(what + ": " + status.ToString());
  }
  void Merge(const Check& other) {
    ok = ok && other.ok;
    printed += other.printed;
  }
};

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "set-up failed: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}

// --- reads with answers computed from the generated rows ------------------

struct ReadQuery {
  std::string sql;
  int64_t count = 0;
  int64_t sum = 0;
};

/// Two read shapes over a source table: a point aggregate on one group
/// value, and a range-filtered aggregate over the whole table. The expected
/// answers are counted here from the table's rows, not through SQL.
class ReadPlan {
 public:
  ReadPlan(const Table& table, const std::string& group_col,
           const std::string& range_col, const std::string& sum_col,
           const std::vector<int64_t>& thresholds) {
    const int g = table.schema().FindColumn(group_col);
    const int r = table.schema().FindColumn(range_col);
    const int s = table.schema().FindColumn(sum_col);
    if (g < 0 || r < 0 || s < 0) {
      Fatal("read plan", Status::InvalidArgument("missing column"));
    }
    const std::string prefix =
        "SELECT COUNT(*), SUM(" + sum_col + ") FROM " + table.name() + " WHERE ";
    std::map<std::string, ReadQuery> points;
    for (const Row& row : table.rows()) {
      const minerule::Value& key = row[g];
      const std::string literal =
          key.type() == minerule::DataType::kString ? "'" + key.AsString() + "'"
                                                     : key.ToString();
      ReadQuery& q = points[literal];
      q.sql = prefix + group_col + " = " + literal;
      ++q.count;
      q.sum += row[s].AsInteger();
    }
    for (auto& [literal, q] : points) point_.push_back(std::move(q));
    for (int64_t threshold : thresholds) {
      ReadQuery q;
      q.sql = prefix + range_col + " >= " + std::to_string(threshold);
      for (const Row& row : table.rows()) {
        if (row[r].AsDouble() >= static_cast<double>(threshold)) {
          ++q.count;
          q.sum += row[s].AsInteger();
        }
      }
      if (q.count > 0) range_.push_back(std::move(q));
    }
  }

  const ReadQuery& Point(uint64_t k) const { return point_[k % point_.size()]; }
  const ReadQuery& Range(uint64_t k) const { return range_[k % range_.size()]; }

 private:
  std::vector<ReadQuery> point_;
  std::vector<ReadQuery> range_;
};

bool Matches(const ReadQuery& q, const sql::QueryResult& result) {
  if (result.rows.size() != 1 || result.rows[0].size() != 2) return false;
  const Row& row = result.rows[0];
  return row[0].type() == minerule::DataType::kInteger &&
         row[1].type() == minerule::DataType::kInteger &&
         row[0].AsInteger() == q.count && row[1].AsInteger() == q.sum;
}

// --- inputs ----------------------------------------------------------------

std::shared_ptr<Table> LoadRetail(Catalog* catalog, int64_t customers,
                                  uint64_t seed) {
  datagen::RetailParams params;
  params.num_customers = customers;
  params.num_items = 50;
  params.seed = seed;
  auto table = datagen::GenerateRetailTable(catalog, "Purchase", params);
  if (!table.ok()) Fatal("retail generation", table.status());
  return *table;
}

std::shared_ptr<Table> LoadQuest(Catalog* catalog, uint64_t seed) {
  datagen::QuestParams params;  // T10 I4 over 1000 items
  params.num_transactions = 20000;
  params.seed = seed;
  auto table = datagen::MaterializeQuestTable(catalog, "Quest", params);
  if (!table.ok()) Fatal("quest generation", table.status());
  return *table;
}

const std::vector<int64_t> kPriceThresholds = {25, 50, 100, 150, 200, 300, 400};
const std::vector<int64_t> kItemThresholds = {100, 250, 400, 550, 700, 850};

const char kAuditDdl[] =
    "CREATE TABLE Audit (session INTEGER, seq INTEGER, note VARCHAR)";

std::string AuditInsert(int session, int64_t seq) {
  return "INSERT INTO Audit VALUES (" + std::to_string(session) + ", " +
         std::to_string(seq) + ", 'w')";
}

/// The paper check: Figure 1 in, Figure 2.b out, and the same output
/// through the independent soundness and completeness counting.
void CheckPaperExample(Check* check) {
  Catalog catalog;
  mr::DataMiningSystem system(&catalog);
  auto table = datagen::MakePaperPurchaseTable(&catalog);
  if (!table.ok()) return check->Fail("paper table: " + table.status().ToString());
  auto run = system.ExecuteMineRule(datagen::PaperExampleStatement());
  if (!run.ok()) return check->Fail("paper statement: " + run.status().ToString());
  RuleSet rules;
  MiningInstance instance;
  check->Expect(ReadRuleTables(catalog, "FilteredOrderedSets", &rules),
                "paper output");
  check->Expect(CheckFigure2b(rules), "Figure 2.b");
  check->Expect(RetailGeneralInstance(**table, &instance), "paper instance");
  check->Expect(CheckRules(instance, {0.2, 0.3, 1, -1, 1, -1}, rules),
                "paper rules");
}

std::string OutputBytes(const Catalog& catalog, const std::string& out) {
  return TableBytes(catalog, out) + TableBytes(catalog, out + "_Bodies") +
         TableBytes(catalog, out + "_Heads");
}

std::string UnitFor(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("utilization") || ends_with("_per_candidate") ||
      ends_with("_per_statement")) {
    return "ratio";
  }
  return "count";
}

// --- the traced run ---------------------------------------------------------

/// How far a drive's layer time may lie from the program's own figure for the
/// same phase (MiningRunStats of the untraced run of the same pair) before
/// the traced run fails. The median over the pairs of drive minus program
/// must be within 25% of the program's median, or 2 ms, whichever is larger.
/// A single generated query is timed over a shorter stretch and varies more
/// from run to run, so it gets 40%.
constexpr double kPhaseRelTolerance = 0.25;
constexpr double kQueryRelTolerance = 0.40;
constexpr double kPhaseAbsToleranceMs = 2.0;

/// The program's own report of one untraced run in the drive's metric names.
/// Phase times go to `ms`; counts that the drive must reproduce exactly go
/// to `counts`. The program times the encoded-table fetch and the core
/// operator as one phase, so they are compared as their sum.
void ProgramFigures(const mr::MiningRunStats& stats, LayerMetrics* ms,
                    LayerMetrics* counts) {
  (*ms)["minerule.translate_ms"] = stats.translate_seconds * 1e3;
  (*ms)["preprocess.total_ms"] = stats.preprocess_seconds * 1e3;
  (*ms)["sql.fetch_ms+mining.core_ms"] = stats.core_seconds * 1e3;
  (*ms)["postprocess.total_ms"] = stats.postprocess_seconds * 1e3;
  std::map<std::string, int> seen;
  for (const mr::QueryStat& q : stats.preprocess_queries) {
    // The program's CREATE TABLE set-up ("DDL") has no per-query metric; its
    // time is inside preprocess.total_ms on both sides.
    if (q.id == "DDL") continue;
    const std::string id = "preprocess." + OrdinalQueryId(q.id, &seen);
    (*ms)[id + "_ms"] = static_cast<double>(q.micros) / 1e3;
    (*counts)[id + "_rows"] = static_cast<double>(q.rows);
  }
  CoreCounts(stats.core, counts);
  double post_rows = 0;
  for (const mr::QueryStat& q : stats.postprocess_queries) post_rows += q.rows;
  (*counts)["postprocess.rows"] = post_rows;
}

/// Alternates one untraced ExecuteMineRule with one layer-by-layer drive of
/// the same statement until `seconds` have passed and at least `min_pairs`
/// pairs ran. Every drive must leave the output tables byte-identical to the
/// untraced run's, reproduce the program's own row and candidate counts
/// exactly, and time each layer like the program's own report of the same
/// phase (within the tolerance above). Reports each per-layer number's median
/// over the drives, and the tracing overhead.
void TraceStatement(Catalog* catalog, mr::DataMiningSystem* system,
                    const std::string& statement, const std::string& out_table,
                    double seconds, int min_pairs, SpanRecorder* spans,
                    Outcome* outcome, Check* check) {
  sql::SqlEngine engine(catalog);
  ConfigureLikeDataMiningSystem(&engine);
  std::optional<std::string> reference;
  std::vector<double> untraced_ms, traced_ms;
  std::map<std::string, std::vector<double>> layers, program_ms, gap_ms;
  int pairs = 0;
  const Clock::time_point start = Clock::now();
  while (pairs < min_pairs || SecondsSince(start) < seconds) {
    ++pairs;
    outcome->attempted += 2;
    Clock::time_point t0 = Clock::now();
    auto run = system->ExecuteMineRule(statement);
    const double ms = SecondsSince(t0) * 1e3;
    LayerMetrics program, program_counts;
    if (!run.ok()) {
      ++outcome->failed;
      std::fprintf(stderr, "untraced run failed: %s\n",
                   run.status().ToString().c_str());
    } else {
      untraced_ms.push_back(ms);
      ProgramFigures(*run, &program, &program_counts);
      const std::string bytes = OutputBytes(*catalog, out_table);
      if (!reference) reference = bytes;
      if (bytes != *reference) check->Fail("untraced output tables changed");
    }

    LayerMetrics metrics;
    Status driven = DriveLayers(catalog, &engine, statement, pairs, spans,
                                &metrics);
    if (!driven.ok()) {
      ++outcome->failed;
      std::fprintf(stderr, "layer drive failed: %s\n",
                   driven.ToString().c_str());
      continue;
    }
    traced_ms.push_back(metrics["trace.drive_ms"]);
    metrics["sql.fetch_ms+mining.core_ms"] =
        metrics["sql.fetch_ms"] + metrics["mining.core_ms"];
    for (const auto& [name, value] : metrics) layers[name].push_back(value);
    for (const auto& [name, value] : program) {
      program_ms[name].push_back(value);
      auto it = metrics.find(name);
      if (it == metrics.end()) {
        check->Fail("layer drive has no " + name);
      } else {
        gap_ms[name].push_back(it->second - value);
      }
    }
    for (const auto& [name, value] : program_counts) {
      auto it = metrics.find(name);
      if (it == metrics.end() || it->second != value) {
        check->Fail("layer drive " + name + " differs from the program's " +
                    std::to_string(value));
      }
    }
    if (!reference || OutputBytes(*catalog, out_table) != *reference) {
      check->Fail("layer drive output differs from ExecuteMineRule's");
    }
  }
  for (const auto& [name, values] : program_ms) {
    const double program = Median(values);
    const double gap = Median(gap_ms[name]);
    const bool query = name.rfind("preprocess.Q", 0) == 0;
    const bool agrees =
        std::abs(gap) <=
        std::max((query ? kQueryRelTolerance : kPhaseRelTolerance) * program,
                 kPhaseAbsToleranceMs);
    std::fprintf(stderr,
                 "trace: %-28s program %9.3f ms, drive - program %+8.3f ms "
                 "(%+.1f%%)%s\n",
                 name.c_str(), program, gap,
                 program > 0 ? 100 * gap / program : 0.0,
                 agrees ? "" : "  DISAGREES");
    if (!agrees) check->Fail("layer span " + name + " disagrees with the program");
  }
  for (const auto& [name, values] : layers) {
    if (name == "trace.drive_ms" || name == "sql.fetch_ms+mining.core_ms") {
      continue;
    }
    outcome->metrics.push_back({name, UnitFor(name), Median(values)});
  }
  const double untraced = Median(untraced_ms);
  const double traced = Median(traced_ms);
  outcome->metrics.push_back({"trace.untraced_mine_ms", "ms", untraced});
  outcome->metrics.push_back({"trace.traced_mine_ms", "ms", traced});
  outcome->metrics.push_back({"trace.overhead_ms", "ms", traced - untraced});
  std::fprintf(stderr, "trace: untraced %.3f ms, traced %.3f ms (%d pairs)\n",
               untraced, traced, pairs);
}

// --- the workloads' statements ------------------------------------------------

struct MiningWorkload {
  const char* name;
  const char* statement;
  const char* out_table;
  RuleSpec spec;
};

const MiningWorkload kRetailGeneral = {
    "retail-general",
    "MINE RULE FollowUps AS SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 "
    "FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < "
    "HEAD.date EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.2",
    "FollowUps",
    {0.03, 0.2, 1, 2, 1, 1}};

const MiningWorkload kQuestSimple = {
    "quest-simple",
    "MINE RULE QuestRules AS SELECT DISTINCT 1..3 item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE FROM Quest GROUP BY tid "
    "EXTRACTING RULES WITH SUPPORT: 0.0015, CONFIDENCE: 0.5",
    "QuestRules",
    {0.0015, 0.5, 1, 3, 1, 1}};

// --- the statement round ------------------------------------------------------

/// Every workload runs the same round of 20 statements per session: one
/// MINE RULE followed by the three SELECTs that read its rule tables back
/// (F), 12 reads (P = per-group point aggregate, R = range-filtered
/// aggregate) and 4 INSERTs (W) into a side table `Audit` that neither the
/// reads nor the mining touch, so costs stay constant over the run. The
/// mining workloads run it on one session around their large statement,
/// server-mix on 4 concurrent sessions around a small one. Each round runs
/// these units in an order drawn from the session's generator, so the
/// server-mix sessions' MINE RULEs do not lock into a fixed phase with one
/// another: with a fixed order that mix settles, run by run, either into
/// reads stalling behind MINE RULE or into MINE RULEs queueing behind each
/// other, and its percentiles jump between the two.
constexpr char kMineAndFetch[] = "MFFF";
constexpr char kRoundOthers[] = "PRWPRWPRWPRWPRPR";

std::string ShuffledRound(std::mt19937_64* rng) {
  std::vector<std::string> units = {kMineAndFetch};
  for (const char* op = kRoundOthers; *op != '\0'; ++op) {
    units.emplace_back(1, *op);
  }
  std::shuffle(units.begin(), units.end(), *rng);
  std::string round;
  for (const std::string& unit : units) round += unit;
  return round;
}

bool SameRules(const RuleSet& a, const RuleSet& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.support != ib->second.support ||
        ia->second.confidence != ib->second.confidence) {
      return false;
    }
  }
  return true;
}

/// The three SELECTs that read a MINE RULE's rule tables back, one per F of
/// a round. With the third, the rules they returned are decoded and must
/// equal the reference.
class RuleFetches {
 public:
  explicit RuleFetches(const std::string& out)
      : out_(out),
        sql_{"SELECT BodyId, HeadId, SUPPORT, CONFIDENCE FROM " + out,
             "SELECT BodyId, item FROM " + out + "_Bodies",
             "SELECT HeadId, item FROM " + out + "_Heads"} {}

  const std::string& Next() const { return sql_[next_]; }

  /// Takes the rows the statement Next() returned (none if it failed).
  void Record(std::vector<Row> rows, const RuleSet& reference, Check* check) {
    parts_[next_] = std::move(rows);
    if (++next_ < 3) return;
    next_ = 0;
    RuleSet rules;
    Status decoded = DecodeRules(parts_[0], parts_[1], parts_[2], &rules);
    if (!decoded.ok() || !SameRules(rules, reference)) {
      check->Fail(out_ + " differs from the reference rules");
    }
  }

  /// Runs the three SELECTs in a row and decodes their rules.
  template <typename Execute>
  Status FetchAll(const Execute& execute, RuleSet* rules) const {
    std::vector<Row> parts[3];
    for (size_t i = 0; i < 3; ++i) {
      MR_ASSIGN_OR_RETURN(parts[i], execute(sql_[i]));
    }
    return DecodeRules(parts[0], parts[1], parts[2], rules);
  }

 private:
  std::string out_;
  std::string sql_[3];
  std::vector<Row> parts_[3];
  size_t next_ = 0;
};

// --- retail-general and quest-simple ---------------------------------------

/// One session runs the statement round around the workload's statement,
/// through DataMiningSystem::ExecuteMineRule and ExecuteSql.
Outcome RunMining(const MiningWorkload& w, const RunOptions& options,
                  const std::function<void()>& ready) {
  Outcome outcome;
  Check check;
  Catalog catalog;
  mr::DataMiningSystem system(&catalog);
  const bool retail = &w == &kRetailGeneral;
  std::shared_ptr<Table> source = retail ? LoadRetail(&catalog, 6400, options.seed)
                                         : LoadQuest(&catalog, options.seed);
  const ReadPlan reads =
      retail ? ReadPlan(*source, "customer", "price", "qty", kPriceThresholds)
             : ReadPlan(*source, "tid", "item", "item", kItemThresholds);
  RuleFetches fetches(w.out_table);
  Must(system.ExecuteSql(kAuditDdl).status(), "audit table");
  auto warm = system.ExecuteMineRule(w.statement);
  if (!warm.ok()) Fatal("warm-up statement", warm.status());
  const int64_t expected_rules = warm->output.num_rules;
  // The warm-up's rules, read back through SQL: the reference that every
  // round's fetched rules must equal, checked against the source below.
  RuleSet reference;
  Must(fetches.FetchAll(
           [&](const std::string& text) -> minerule::Result<std::vector<Row>> {
             MR_ASSIGN_OR_RETURN(sql::QueryResult result, system.ExecuteSql(text));
             return std::move(result.rows);
           },
           &reference),
       "reference rules");
  if (static_cast<int64_t>(reference.size()) != expected_rules) {
    check.Fail("rule tables hold another rule count than the run reported");
  }
  ready();

  if (options.trace) {
    SpanRecorder spans;
    TraceStatement(&catalog, &system, w.statement, w.out_table,
                   options.seconds, 1, &spans, &outcome, &check);
    if (!options.trace_out.empty()) {
      check.Expect(spans.WriteJson(options.trace_out, w.name, options.seed),
                   "span file");
    }
  } else {
    std::mt19937_64 rng(options.seed);
    // Throughput is the median over rounds of statements per second.
    std::vector<double> mine_s, read_ms, write_ms, round_sps;
    int64_t seq = 0, acked = 0;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < options.seconds) {
      const Clock::time_point round_start = Clock::now();
      const int64_t failed_before = outcome.failed;
      const std::string round = ShuffledRound(&rng);
      for (char op : round) {
        ++outcome.attempted;
        const Clock::time_point t0 = Clock::now();
        if (op == 'M') {
          auto run = system.ExecuteMineRule(w.statement);
          if (!run.ok()) {
            ++outcome.failed;
            std::fprintf(stderr, "MINE RULE failed: %s\n",
                         run.status().ToString().c_str());
            continue;
          }
          mine_s.push_back(SecondsSince(t0));
          if (run->output.num_rules != expected_rules) {
            check.Fail("rule count changed between runs");
          }
          continue;
        }
        const ReadQuery* read = nullptr;
        std::string text;
        switch (op) {
          case 'F': text = fetches.Next(); break;
          case 'W': text = AuditInsert(0, ++seq); break;
          default:
            read = op == 'P' ? &reads.Point(rng()) : &reads.Range(rng());
            text = read->sql;
        }
        auto result = system.ExecuteSql(text);
        const double ms = SecondsSince(t0) * 1e3;
        if (!result.ok()) {
          ++outcome.failed;
          std::fprintf(stderr, "%s failed: %s\n", text.c_str(),
                       result.status().ToString().c_str());
          if (op == 'F') fetches.Record({}, reference, &check);
          continue;
        }
        if (read != nullptr) {
          read_ms.push_back(ms);
          if (!Matches(*read, *result)) check.Fail("wrong answer: " + text);
        } else if (op == 'W') {
          write_ms.push_back(ms);
          if (result->affected_rows == 1) {
            ++acked;
          } else {
            check.Fail("INSERT did not report one row");
          }
        } else {
          fetches.Record(std::move(result->rows), reference, &check);
        }
      }
      round_sps.push_back(
          static_cast<double>(static_cast<int64_t>(round.size()) -
                              (outcome.failed - failed_before)) /
          SecondsSince(round_start));
    }
    auto count = system.ExecuteSql("SELECT COUNT(*) FROM Audit");
    if (!count.ok() || count->rows.size() != 1 ||
        count->rows[0][0].AsInteger() != acked) {
      check.Fail("Audit does not hold the acknowledged INSERTs");
    }
    outcome.metrics = {
        {"mine_s", "s", Median(mine_s)},
        {"throughput_sps", "1/s", Median(round_sps)},
        {"read_p50_ms", "ms", Percentile(read_ms, 0.50)},
        {"read_p95_ms", "ms", Percentile(read_ms, 0.95)},
        {"write_p50_ms", "ms", Median(write_ms)},
    };
    std::fprintf(stderr, "%s: %lld statements, %zu MINE RULE, %zu reads, "
                 "%lld rules\n",
                 w.name, static_cast<long long>(outcome.attempted),
                 mine_s.size(), read_ms.size(),
                 static_cast<long long>(expected_rules));
  }

  MiningInstance instance;
  check.Expect(retail ? RetailGeneralInstance(*source, &instance)
                      : SimpleInstance(*source, "tid", "item", &instance),
               "instance");
  check.Expect(CheckRules(instance, w.spec, reference),
               std::string(w.name) + " rules");
  CheckPaperExample(&check);
  outcome.correct = check.ok;
  return outcome;
}

// --- server-mix --------------------------------------------------------------

const char kServerMineTail[] =
    " AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, "
    "CONFIDENCE FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: 0.004, CONFIDENCE: 0.1";
const RuleSpec kServerSpec = {0.004, 0.1, 1, -1, 1, 1};

std::string SessionOutput(int session) {
  return "Basket_s" + std::to_string(session + 1);
}

struct Sample {
  char op;
  server::StatementClass cls;
  double latency_ms;
  double queue_ms;
  bool queued;
  double end_s;  // completion, in seconds since the mix started
};

/// The mix is cut into this many windows of equal length; each end-to-end
/// metric is computed per window and the median over windows is reported,
/// so a few seconds in which the machine runs the process slowly move the
/// result less than they would move a figure over the whole run.
constexpr int kWindows = 10;

struct SessionLog {
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t acked = 0;
  Check check;
};

void DriveSession(server::Session* session, int index, uint64_t seed,
                  const ReadPlan& reads, const RuleSet& reference,
                  Clock::time_point start, Clock::time_point deadline,
                  SessionLog* log) {
  std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(index));
  const std::string out = SessionOutput(index);
  const std::string mine = "MINE RULE " + out + kServerMineTail;
  RuleFetches fetches(out);
  int64_t seq = 0;
  while (Clock::now() < deadline) {
    for (char op : ShuffledRound(&rng)) {
      const ReadQuery* read = nullptr;
      std::string text;
      switch (op) {
        case 'M': text = mine; break;
        case 'F': text = fetches.Next(); break;
        case 'W': text = AuditInsert(index + 1, ++seq); break;
        default:
          read = op == 'P' ? &reads.Point(rng()) : &reads.Range(rng());
          text = read->sql;
      }
      ++log->attempted;
      const Clock::time_point t0 = Clock::now();
      auto result = session->Execute(text);
      const double ms = SecondsSince(t0) * 1e3;
      if (!result.ok()) {
        ++log->failed;
        std::fprintf(stderr, "session %d: %s failed: %s\n", index + 1,
                     text.c_str(), result.status().ToString().c_str());
        if (op == 'F') fetches.Record({}, reference, &log->check);
        continue;
      }
      log->samples.push_back(
          {op, result->statement_class, ms,
           static_cast<double>(result->queue_wait_micros) / 1e3,
           result->queued, SecondsSince(start)});
      if (read != nullptr) {
        if (!Matches(*read, result->query)) {
          log->check.Fail("wrong answer: " + text);
        }
      } else if (op == 'W') {
        if (result->query.affected_rows == 1) {
          ++log->acked;
        } else {
          log->check.Fail("INSERT did not report one row");
        }
      } else if (op == 'F') {
        fetches.Record(std::move(result->query.rows), reference, &log->check);
      }
    }
  }
}

Outcome RunServerMix(const RunOptions& options,
                     const std::function<void()>& ready) {
  Outcome outcome;
  Check check;
  Catalog catalog;
  std::shared_ptr<Table> purchase = LoadRetail(&catalog, 1600, options.seed);
  const ReadPlan reads(*purchase, "customer", "price", "qty", kPriceThresholds);
  server::Server srv(&catalog);
  const int num_sessions = std::min(4, minerule::HardwareThreads());
  std::vector<std::unique_ptr<server::Session>> sessions;
  for (int i = 0; i < num_sessions; ++i) {
    sessions.push_back(srv.Connect("bench-" + std::to_string(i + 1)));
  }
  Must(sessions[0]->Execute(kAuditDdl).status(), "audit table");
  // The statement run alone on one session: the reference every concurrent
  // run must reproduce.
  auto warm = sessions[0]->Execute("MINE RULE " + SessionOutput(0) +
                                   kServerMineTail);
  if (!warm.ok()) Fatal("warm-up statement", warm.status());
  RuleSet reference;
  Must(RuleFetches(SessionOutput(0))
           .FetchAll(
               [&](const std::string& text)
                   -> minerule::Result<std::vector<Row>> {
                 MR_ASSIGN_OR_RETURN(server::SessionResult result,
                                     sessions[0]->Execute(text));
                 return std::move(result.query.rows);
               },
               &reference),
       "reference rules");
  ready();

  std::vector<SessionLog> logs(num_sessions);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < num_sessions; ++i) {
      threads.emplace_back(DriveSession, sessions[i].get(), i, options.seed,
                           std::cref(reads), std::cref(reference), start,
                           deadline, &logs[i]);
    }
    for (std::thread& t : threads) t.join();
  }

  struct Window {
    int64_t completed = 0;
    double first_end_s = 1e300, last_end_s = 0;
    std::vector<double> mine_s, read_ms, write_ms;
  };
  std::vector<Window> windows(kWindows);
  const double window_s = options.seconds / kWindows;
  int64_t acked = 0, mines = 0, reads_done = 0;
  std::map<server::StatementClass, std::vector<double>> queue_ms, exec_ms;
  int64_t queued = 0, completed = 0;
  for (const SessionLog& log : logs) {
    outcome.attempted += log.attempted;
    outcome.failed += log.failed;
    acked += log.acked;
    check.Merge(log.check);
    for (const Sample& s : log.samples) {
      ++completed;
      if (s.queued) ++queued;
      queue_ms[s.cls].push_back(s.queue_ms);
      exec_ms[s.cls].push_back(s.latency_ms - s.queue_ms);
      if (s.op == 'M') ++mines;
      if (s.op == 'P' || s.op == 'R') ++reads_done;
      // Statements that end after the deadline (the last rounds) are
      // counted as attempted but fall outside every window.
      const auto w = static_cast<size_t>(s.end_s / window_s);
      if (w >= windows.size()) continue;
      Window& window = windows[w];
      ++window.completed;
      window.first_end_s = std::min(window.first_end_s, s.end_s);
      window.last_end_s = std::max(window.last_end_s, s.end_s);
      if (s.op == 'M') window.mine_s.push_back(s.latency_ms / 1e3);
      if (s.op == 'P' || s.op == 'R') window.read_ms.push_back(s.latency_ms);
      if (s.op == 'W') window.write_ms.push_back(s.latency_ms);
    }
  }
  auto count = sessions[0]->Execute("SELECT COUNT(*) FROM Audit");
  if (!count.ok() || count->query.rows.size() != 1 ||
      count->query.rows[0][0].AsInteger() != acked) {
    check.Fail("Audit does not hold the acknowledged INSERTs");
  }
  std::fprintf(stderr,
               "server-mix: %d sessions, %lld statements, %zu MINE RULE, "
               "%zu reads, %lld acknowledged INSERTs, %zu rules\n",
               num_sessions, static_cast<long long>(outcome.attempted),
               static_cast<size_t>(mines), static_cast<size_t>(reads_done),
               static_cast<long long>(acked), reference.size());

  if (options.trace) {
    for (auto cls : {server::StatementClass::kRead, server::StatementClass::kWrite,
                     server::StatementClass::kMineRule}) {
      const std::string prefix =
          std::string("server.") + server::StatementClassName(cls) + ".";
      outcome.metrics.push_back({prefix + "queue_wait_p50_ms", "ms",
                                 Percentile(queue_ms[cls], 0.50)});
      outcome.metrics.push_back({prefix + "queue_wait_p95_ms", "ms",
                                 Percentile(queue_ms[cls], 0.95)});
      outcome.metrics.push_back(
          {prefix + "exec_p50_ms", "ms", Median(exec_ms[cls])});
    }
    outcome.metrics.push_back(
        {"server.queued_per_statement", "ratio",
         completed > 0 ? static_cast<double>(queued) / completed : 0});
    outcome.metrics.push_back(
        {"server.statements", "count", static_cast<double>(completed)});
    // The per-layer split of the session statement, driven after the mix
    // on the same catalog.
    mr::DataMiningSystem system(&catalog);
    SpanRecorder spans;
    TraceStatement(&catalog, &system, "MINE RULE Basket_drive" +
                   std::string(kServerMineTail), "Basket_drive", 0, 15, &spans,
                   &outcome, &check);
    if (!options.trace_out.empty()) {
      check.Expect(spans.WriteJson(options.trace_out, "server-mix",
                                   options.seed),
                   "span file");
    }
  } else {
    std::vector<double> mine_s, throughput, read_p50, read_p95, write_p50;
    for (const Window& w : windows) {
      // Completions per second between the window's first and last one.
      if (w.completed > 1 && w.last_end_s > w.first_end_s) {
        throughput.push_back(static_cast<double>(w.completed - 1) /
                             (w.last_end_s - w.first_end_s));
      }
      if (!w.mine_s.empty()) mine_s.push_back(Median(w.mine_s));
      if (!w.read_ms.empty()) {
        read_p50.push_back(Percentile(w.read_ms, 0.50));
        read_p95.push_back(Percentile(w.read_ms, 0.95));
      }
      if (!w.write_ms.empty()) write_p50.push_back(Median(w.write_ms));
    }
    outcome.metrics = {
        {"mine_s", "s", Median(mine_s)},
        {"throughput_sps", "1/s", Median(throughput)},
        {"read_p50_ms", "ms", Median(read_p50)},
        {"read_p95_ms", "ms", Median(read_p95)},
        {"write_p50_ms", "ms", Median(write_p50)},
    };
  }

  MiningInstance instance;
  check.Expect(SimpleInstance(*purchase, "tr", "item", &instance), "instance");
  check.Expect(CheckRules(instance, kServerSpec, reference), "server-mix rules");
  CheckPaperExample(&check);
  outcome.correct = check.ok;
  return outcome;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      kRetailGeneral.name, kQuestSimple.name, "server-mix"};
  return names;
}

Outcome RunWorkload(const RunOptions& options,
                    const std::function<void()>& ready) {
  if (options.workload == kRetailGeneral.name) {
    return RunMining(kRetailGeneral, options, ready);
  }
  if (options.workload == kQuestSimple.name) {
    return RunMining(kQuestSimple, options, ready);
  }
  return RunServerMix(options, ready);
}

}  // namespace e2e
