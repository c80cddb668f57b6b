#include "checker.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <unordered_map>

namespace e2e {

using minerule::Row;
using minerule::Status;

namespace {

constexpr double kValueTolerance = 1e-9;

std::string Braced(const std::vector<std::string>& items) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "}";
}

Status IdAt(const Row& row, size_t index, int64_t* id) {
  if (index >= row.size() ||
      row[index].type() != minerule::DataType::kInteger) {
    return Status::Internal("output row column " + std::to_string(index) +
                            " is not an integer id");
  }
  *id = row[index].AsInteger();
  return Status::OK();
}

Status NumberAt(const Row& row, size_t index, double* value) {
  if (index >= row.size() ||
      (row[index].type() != minerule::DataType::kDouble &&
       row[index].type() != minerule::DataType::kInteger)) {
    return Status::Internal("output row column " + std::to_string(index) +
                            " is not a number");
  }
  *value = row[index].AsDouble();
  return Status::OK();
}

Status ItemSets(const std::vector<Row>& rows,
                std::map<int64_t, std::vector<std::string>>* sets) {
  for (const Row& row : rows) {
    int64_t id = 0;
    MR_RETURN_IF_ERROR(IdAt(row, 0, &id));
    if (row.size() != 2) {
      return Status::Internal("item-set row must have 2 columns");
    }
    (*sets)[id].push_back(row[1].ToString());
  }
  for (auto& [id, items] : *sets) std::sort(items.begin(), items.end());
  return Status::OK();
}

int64_t MinGroups(double min_support, int64_t total_groups) {
  if (min_support <= 0) return 1;
  const double raw = min_support * static_cast<double>(total_groups);
  return std::max<int64_t>(1, static_cast<int64_t>(std::ceil(raw - 1e-9)));
}

bool Allows(int min, int max, size_t size) {
  return static_cast<int>(size) >= min &&
         (max < 0 || static_cast<int>(size) <= max);
}

/// Interns item names to dense ids.
class ItemIds {
 public:
  explicit ItemIds(std::vector<std::string>* names) : names_(names) {}
  int Id(const std::string& name) {
    auto [it, inserted] =
        ids_.emplace(name, static_cast<int>(names_->size()));
    if (inserted) names_->push_back(name);
    return it->second;
  }

 private:
  std::vector<std::string>* names_;
  std::unordered_map<std::string, int> ids_;
};

void SortUnique(std::vector<int>* items) {
  std::sort(items->begin(), items->end());
  items->erase(std::unique(items->begin(), items->end()), items->end());
}

using Bits = std::vector<uint64_t>;

/// Cluster-level bitsets per item and role, over all clusters of all groups
/// in group order.
struct ClusterIndex {
  std::vector<int> group_of;  // cluster -> group
  std::vector<int64_t> key_of;
  std::vector<Bits> body;  // item -> clusters where it may be a body item
  std::vector<Bits> head;
  size_t words = 0;

  explicit ClusterIndex(const MiningInstance& instance) {
    for (size_t g = 0; g < instance.groups.size(); ++g) {
      for (const auto& cluster : instance.groups[g]) {
        group_of.push_back(static_cast<int>(g));
        key_of.push_back(cluster.key);
      }
    }
    words = (group_of.size() + 63) / 64;
    body.assign(instance.item_names.size(), Bits(words, 0));
    head.assign(instance.item_names.size(), Bits(words, 0));
    size_t c = 0;
    for (const auto& group : instance.groups) {
      for (const auto& cluster : group) {
        for (int item : cluster.body_items) body[item][c / 64] |= 1ull << (c % 64);
        for (int item : cluster.head_items) head[item][c / 64] |= 1ull << (c % 64);
        ++c;
      }
    }
  }

  Bits And(const std::vector<Bits>& role, const std::vector<int>& items) const {
    Bits out(words, ~0ull);
    for (int item : items) {
      for (size_t w = 0; w < words; ++w) out[w] &= role[item][w];
    }
    return out;
  }

  template <typename F>
  void ForEach(const Bits& bits, F&& f) const {
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = bits[w];
      while (word != 0) {
        f(w * 64 + static_cast<size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  int64_t DistinctGroups(const Bits& bits) const {
    int64_t count = 0;
    int last = -1;
    ForEach(bits, [&](size_t c) {
      if (group_of[c] != last) {
        ++count;
        last = group_of[c];
      }
    });
    return count;
  }

  /// Groups with a valid (body cluster, head cluster) pair.
  int64_t SupportingGroups(const Bits& body_clusters, const Bits& head_clusters,
                           MiningInstance::Pairing pairing) const {
    if (pairing == MiningInstance::Pairing::kSameCluster) {
      Bits both(words);
      for (size_t w = 0; w < words; ++w) {
        both[w] = body_clusters[w] & head_clusters[w];
      }
      return DistinctGroups(both);
    }
    // BODY.key < HEAD.key: a group supports the rule iff its earliest body
    // cluster precedes its latest head cluster.
    std::unordered_map<int, int64_t> earliest_body;
    ForEach(body_clusters, [&](size_t c) {
      auto [it, inserted] = earliest_body.emplace(group_of[c], key_of[c]);
      if (!inserted) it->second = std::min(it->second, key_of[c]);
    });
    std::set<int> supporting;
    ForEach(head_clusters, [&](size_t c) {
      auto it = earliest_body.find(group_of[c]);
      if (it != earliest_body.end() && it->second < key_of[c]) {
        supporting.insert(group_of[c]);
      }
    });
    return static_cast<int64_t>(supporting.size());
  }
};

Status ResolveItems(const std::unordered_map<std::string, int>& ids,
                    const std::vector<std::string>& names,
                    std::vector<int>* out) {
  for (const std::string& name : names) {
    auto it = ids.find(name);
    if (it == ids.end()) {
      return Status::Internal("rule names item '" + name +
                              "' that the source does not hold");
    }
    out->push_back(it->second);
  }
  return Status::OK();
}

}  // namespace

std::string RuleKey(const std::vector<std::string>& body,
                    const std::vector<std::string>& head) {
  return Braced(body) + " => " + Braced(head);
}

Status DecodeRules(const std::vector<Row>& rules,
                   const std::vector<Row>& bodies,
                   const std::vector<Row>& heads, RuleSet* out) {
  std::map<int64_t, std::vector<std::string>> body_sets, head_sets;
  MR_RETURN_IF_ERROR(ItemSets(bodies, &body_sets));
  MR_RETURN_IF_ERROR(ItemSets(heads, &head_sets));
  out->clear();
  for (const Row& row : rules) {
    int64_t body_id = 0, head_id = 0;
    Rule rule;
    MR_RETURN_IF_ERROR(IdAt(row, 0, &body_id));
    MR_RETURN_IF_ERROR(IdAt(row, 1, &head_id));
    MR_RETURN_IF_ERROR(NumberAt(row, 2, &rule.support));
    MR_RETURN_IF_ERROR(NumberAt(row, 3, &rule.confidence));
    auto body = body_sets.find(body_id);
    auto head = head_sets.find(head_id);
    if (body == body_sets.end() || head == head_sets.end()) {
      return Status::Internal("rule references a missing body or head id");
    }
    rule.body = body->second;
    rule.head = head->second;
    const std::string key = RuleKey(rule.body, rule.head);
    if (!out->emplace(key, std::move(rule)).second) {
      return Status::Internal("rule emitted twice: " + key);
    }
  }
  return Status::OK();
}

Status ReadRuleTables(const minerule::Catalog& catalog, const std::string& out,
                      RuleSet* rules) {
  MR_ASSIGN_OR_RETURN(auto table, catalog.GetTable(out));
  MR_ASSIGN_OR_RETURN(auto bodies, catalog.GetTable(out + "_Bodies"));
  MR_ASSIGN_OR_RETURN(auto heads, catalog.GetTable(out + "_Heads"));
  return DecodeRules(table->rows(), bodies->rows(), heads->rows(), rules);
}

Status SimpleInstance(const minerule::Table& table,
                      const std::string& group_col,
                      const std::string& item_col, MiningInstance* out) {
  const int g = table.schema().FindColumn(group_col);
  const int i = table.schema().FindColumn(item_col);
  if (g < 0 || i < 0) return Status::InvalidArgument("missing column");
  *out = MiningInstance{};
  out->pairing = MiningInstance::Pairing::kSameCluster;
  ItemIds ids(&out->item_names);
  std::map<std::string, std::vector<int>> groups;
  for (const Row& row : table.rows()) {
    groups[row[g].ToString()].push_back(ids.Id(row[i].ToString()));
  }
  for (auto& [name, items] : groups) {
    SortUnique(&items);
    MiningInstance::Cluster cluster;
    cluster.body_items = items;
    cluster.head_items = std::move(items);
    out->groups.push_back({std::move(cluster)});
  }
  return Status::OK();
}

Status RetailGeneralInstance(const minerule::Table& purchase,
                             MiningInstance* out) {
  const int customer = purchase.schema().FindColumn("customer");
  const int item = purchase.schema().FindColumn("item");
  const int date = purchase.schema().FindColumn("date");
  const int price = purchase.schema().FindColumn("price");
  if (customer < 0 || item < 0 || date < 0 || price < 0) {
    return Status::InvalidArgument("not a Purchase table");
  }
  *out = MiningInstance{};
  out->pairing = MiningInstance::Pairing::kBodyBeforeHead;
  ItemIds ids(&out->item_names);
  std::map<std::string, std::map<int64_t, MiningInstance::Cluster>> groups;
  for (const Row& row : purchase.rows()) {
    const int64_t day = row[date].AsDate();
    MiningInstance::Cluster& cluster = groups[row[customer].ToString()][day];
    cluster.key = day;
    const int id = ids.Id(row[item].ToString());
    if (row[price].AsDouble() >= 100) {
      cluster.body_items.push_back(id);
    } else {
      cluster.head_items.push_back(id);
    }
  }
  for (auto& [name, clusters] : groups) {
    std::vector<MiningInstance::Cluster> list;
    for (auto& [day, cluster] : clusters) {
      SortUnique(&cluster.body_items);
      SortUnique(&cluster.head_items);
      list.push_back(std::move(cluster));
    }
    out->groups.push_back(std::move(list));
  }
  return Status::OK();
}

Status CheckSoundness(const MiningInstance& instance, const RuleSpec& spec,
                      const RuleSet& rules) {
  const ClusterIndex index(instance);
  std::unordered_map<std::string, int> ids;
  for (size_t i = 0; i < instance.item_names.size(); ++i) {
    ids.emplace(instance.item_names[i], static_cast<int>(i));
  }
  const auto total = static_cast<int64_t>(instance.groups.size());
  const int64_t min_groups = MinGroups(spec.min_support, total);
  for (const auto& [key, rule] : rules) {
    if (!Allows(spec.body_min, spec.body_max, rule.body.size()) ||
        !Allows(spec.head_min, spec.head_max, rule.head.size())) {
      return Status::Internal("rule outside the cardinalities: " + key);
    }
    std::vector<int> body, head;
    MR_RETURN_IF_ERROR(ResolveItems(ids, rule.body, &body));
    MR_RETURN_IF_ERROR(ResolveItems(ids, rule.head, &head));
    const Bits body_clusters = index.And(index.body, body);
    const Bits head_clusters = index.And(index.head, head);
    const int64_t count =
        index.SupportingGroups(body_clusters, head_clusters, instance.pairing);
    const int64_t body_count = index.DistinctGroups(body_clusters);
    if (count < min_groups) {
      return Status::Internal("rule below minimum support: " + key + " (" +
                              std::to_string(count) + " groups)");
    }
    const double support =
        static_cast<double>(count) / static_cast<double>(total);
    const double confidence =
        static_cast<double>(count) / static_cast<double>(body_count);
    if (std::abs(support - rule.support) > kValueTolerance) {
      return Status::Internal(
          "support of " + key + " is " + std::to_string(rule.support) +
          ", recomputed " + std::to_string(support));
    }
    if (std::abs(confidence - rule.confidence) > kValueTolerance) {
      return Status::Internal(
          "confidence of " + key + " is " + std::to_string(rule.confidence) +
          ", recomputed " + std::to_string(confidence));
    }
    if (confidence + 1e-12 < spec.min_confidence) {
      return Status::Internal("rule below minimum confidence: " + key);
    }
  }
  return Status::OK();
}

Status CheckCompleteness1x1(const MiningInstance& instance,
                            const RuleSpec& spec, const RuleSet& rules) {
  const size_t n = instance.item_names.size();
  std::unordered_map<int64_t, int64_t> pair_groups;
  std::vector<int64_t> body_groups(n, 0);
  std::vector<int64_t> pairs;
  std::vector<int> present;
  for (const auto& group : instance.groups) {
    pairs.clear();
    present.clear();
    for (size_t b = 0; b < group.size(); ++b) {
      const auto& bc = group[b];
      present.insert(present.end(), bc.body_items.begin(),
                     bc.body_items.end());
      for (size_t h = 0; h < group.size(); ++h) {
        const auto& hc = group[h];
        const bool valid =
            instance.pairing == MiningInstance::Pairing::kSameCluster
                ? b == h
                : bc.key < hc.key;
        if (!valid) continue;
        for (int bi : bc.body_items) {
          for (int hi : hc.head_items) {
            if (bi != hi) pairs.push_back(static_cast<int64_t>(bi) * n + hi);
          }
        }
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (int64_t p : pairs) ++pair_groups[p];
    SortUnique(&present);
    for (int item : present) ++body_groups[item];
  }

  std::set<std::string> expected;
  if (Allows(spec.body_min, spec.body_max, 1) &&
      Allows(spec.head_min, spec.head_max, 1)) {
    const int64_t min_groups = MinGroups(
        spec.min_support, static_cast<int64_t>(instance.groups.size()));
    for (const auto& [pair, count] : pair_groups) {
      const size_t b = static_cast<size_t>(pair) / n;
      const size_t h = static_cast<size_t>(pair) % n;
      const double confidence = static_cast<double>(count) /
                                static_cast<double>(body_groups[b]);
      if (count >= min_groups && confidence + 1e-12 >= spec.min_confidence) {
        expected.insert(
            RuleKey({instance.item_names[b]}, {instance.item_names[h]}));
      }
    }
  }
  std::set<std::string> emitted;
  for (const auto& [key, rule] : rules) {
    if (rule.body.size() == 1 && rule.head.size() == 1) emitted.insert(key);
  }
  for (const std::string& key : expected) {
    if (!emitted.count(key)) {
      return Status::Internal("1x1 rule missing from the output: " + key);
    }
  }
  for (const std::string& key : emitted) {
    if (!expected.count(key)) {
      return Status::Internal("1x1 rule emitted but not qualifying: " + key);
    }
  }
  return Status::OK();
}

Status CheckRules(const MiningInstance& instance, const RuleSpec& spec,
                  const RuleSet& rules) {
  MR_RETURN_IF_ERROR(CheckSoundness(instance, spec, rules));
  return CheckCompleteness1x1(instance, spec, rules);
}

Status CheckFigure2b(const RuleSet& rules) {
  struct Expected {
    std::vector<std::string> body, head;
    double support, confidence;
  };
  const Expected figure[] = {
      {{"brown_boots"}, {"col_shirts"}, 0.5, 1.0},
      {{"jackets"}, {"col_shirts"}, 0.5, 0.5},
      {{"brown_boots", "jackets"}, {"col_shirts"}, 0.5, 1.0},
  };
  if (rules.size() != std::size(figure)) {
    return Status::Internal("Figure 2.b has 3 rules, output has " +
                            std::to_string(rules.size()));
  }
  for (const Expected& e : figure) {
    const std::string key = RuleKey(e.body, e.head);
    auto it = rules.find(key);
    if (it == rules.end()) {
      return Status::Internal("Figure 2.b rule missing: " + key);
    }
    if (it->second.support != e.support ||
        it->second.confidence != e.confidence) {
      return Status::Internal("Figure 2.b rule " + key +
                              " has the wrong support or confidence");
    }
  }
  return Status::OK();
}

}  // namespace e2e
