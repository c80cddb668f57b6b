#ifndef E2E_BENCH_CHECKER_H_
#define E2E_BENCH_CHECKER_H_

// Output checker of the end-to-end benchmark. It recomputes every emitted
// rule's support and confidence from the generated source rows with its own
// counting, enumerates all 1x1 rules by brute force, and pins the paper's
// Figure 2.b table. Nothing here calls the mining code it checks: the
// counting follows the paper's §2 semantics directly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/catalog.h"

namespace e2e {

/// One decoded rule: item names as the output tables hold them.
struct Rule {
  std::vector<std::string> body;  // sorted
  std::vector<std::string> head;  // sorted
  double support = 0;
  double confidence = 0;
};

/// Rules keyed by "{b1,b2} => {h}" over sorted item names.
using RuleSet = std::map<std::string, Rule>;

std::string RuleKey(const std::vector<std::string>& body,
                    const std::vector<std::string>& head);

/// Decodes the three normalized output tables: <out>(BodyId, HeadId,
/// SUPPORT, CONFIDENCE), <out>_Bodies(BodyId, item) and
/// <out>_Heads(HeadId, item).
minerule::Status DecodeRules(const std::vector<minerule::Row>& rules,
                             const std::vector<minerule::Row>& bodies,
                             const std::vector<minerule::Row>& heads,
                             RuleSet* out);

/// Reads and decodes output table `out` straight from the catalog.
minerule::Status ReadRuleTables(const minerule::Catalog& catalog,
                                const std::string& out, RuleSet* rules);

/// The mining input as the statement sees it: groups of clusters, each
/// cluster holding the items that may appear in a body and in a head.
struct MiningInstance {
  /// How a (body cluster, head cluster) pair is valid within a group.
  enum class Pairing {
    kSameCluster,      // no CLUSTER BY: body and head from the one group
    kBodyBeforeHead,   // CLUSTER BY k HAVING BODY.k < HEAD.k
  };
  struct Cluster {
    int64_t key = 0;
    std::vector<int> body_items;  // sorted item ids
    std::vector<int> head_items;  // sorted item ids
  };
  std::vector<std::string> item_names;
  std::vector<std::vector<Cluster>> groups;  // clusters sorted by key
  Pairing pairing = Pairing::kSameCluster;
};

/// Simple class: `item_col` grouped by `group_col`, one cluster per group,
/// every item eligible for both roles.
minerule::Status SimpleInstance(const minerule::Table& table,
                                const std::string& group_col,
                                const std::string& item_col,
                                MiningInstance* out);

/// The paper's general shape over a Purchase table: GROUP BY customer,
/// CLUSTER BY date HAVING BODY.date < HEAD.date, WHERE BODY.price >= 100
/// AND HEAD.price < 100.
minerule::Status RetailGeneralInstance(const minerule::Table& purchase,
                                       MiningInstance* out);

/// Thresholds and cardinalities of the statement (max < 0 means n).
struct RuleSpec {
  double min_support = 0;
  double min_confidence = 0;
  int body_min = 1, body_max = -1;
  int head_min = 1, head_max = 1;
};

/// Soundness: every emitted rule has the support and confidence that the
/// independent counting gives, meets both thresholds and the cardinalities.
minerule::Status CheckSoundness(const MiningInstance& instance,
                                const RuleSpec& spec, const RuleSet& rules);

/// Completeness on 1x1 rules: exactly the single-item rules that meet both
/// thresholds are emitted.
minerule::Status CheckCompleteness1x1(const MiningInstance& instance,
                                      const RuleSpec& spec,
                                      const RuleSet& rules);

/// Both of the above.
minerule::Status CheckRules(const MiningInstance& instance,
                            const RuleSpec& spec, const RuleSet& rules);

/// The paper's Figure 2.b table, exactly: three rules with their support
/// and confidence.
minerule::Status CheckFigure2b(const RuleSet& rules);

}  // namespace e2e

#endif  // E2E_BENCH_CHECKER_H_
