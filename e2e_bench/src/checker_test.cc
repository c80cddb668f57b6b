// The output checker's own test: real outputs pass, and a tampered support
// value or a dropped rule makes it fail.

#include "checker.h"

#include <gtest/gtest.h>

#include "datagen/paper_example.h"
#include "datagen/quest_gen.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"

namespace e2e {
namespace {

using minerule::Catalog;
namespace mr = minerule::mr;
namespace datagen = minerule::datagen;

/// Runs `statement` and decodes output table `out`.
RuleSet Mine(Catalog* catalog, const std::string& statement,
             const std::string& out) {
  mr::DataMiningSystem system(catalog);
  auto run = system.ExecuteMineRule(statement);
  EXPECT_TRUE(run.ok()) << run.status();
  RuleSet rules;
  EXPECT_TRUE(ReadRuleTables(*catalog, out, &rules).ok());
  return rules;
}

/// Tampers with the support of the first rule; drops the first 1x1 rule.
RuleSet TamperSupport(RuleSet rules) {
  rules.begin()->second.support += 1.0 / 64;
  return rules;
}

RuleSet DropOneByOne(RuleSet rules) {
  for (auto it = rules.begin(); it != rules.end(); ++it) {
    if (it->second.body.size() == 1 && it->second.head.size() == 1) {
      rules.erase(it);
      break;
    }
  }
  return rules;
}

TEST(CheckerTest, PaperFigure2b) {
  Catalog catalog;
  auto table = datagen::MakePaperPurchaseTable(&catalog);
  ASSERT_TRUE(table.ok());
  const RuleSet rules =
      Mine(&catalog, datagen::PaperExampleStatement(), "FilteredOrderedSets");
  ASSERT_TRUE(rules.count("{brown_boots} => {col_shirts}"));
  EXPECT_EQ(rules.at("{brown_boots} => {col_shirts}").support, 0.5);
  EXPECT_EQ(rules.at("{brown_boots} => {col_shirts}").confidence, 1.0);

  MiningInstance instance;
  ASSERT_TRUE(RetailGeneralInstance(**table, &instance).ok());
  const RuleSpec spec{0.2, 0.3, 1, -1, 1, -1};
  EXPECT_TRUE(CheckFigure2b(rules).ok());
  EXPECT_TRUE(CheckRules(instance, spec, rules).ok());

  EXPECT_FALSE(CheckFigure2b(TamperSupport(rules)).ok());
  EXPECT_FALSE(CheckSoundness(instance, spec, TamperSupport(rules)).ok());
  EXPECT_FALSE(CheckFigure2b(DropOneByOne(rules)).ok());
  EXPECT_FALSE(CheckCompleteness1x1(instance, spec, DropOneByOne(rules)).ok());
}

TEST(CheckerTest, RetailGeneralStatement) {
  Catalog catalog;
  datagen::RetailParams params;
  params.num_customers = 300;
  params.num_items = 30;
  params.seed = 11;
  auto table = datagen::GenerateRetailTable(&catalog, "Purchase", params);
  ASSERT_TRUE(table.ok());
  const RuleSet rules = Mine(
      &catalog,
      "MINE RULE FollowUps AS SELECT DISTINCT 1..2 item AS BODY, 1..1 item "
      "AS HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < "
      "100 FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date "
      "< HEAD.date EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.2",
      "FollowUps");
  ASSERT_GT(rules.size(), 1u);
  MiningInstance instance;
  ASSERT_TRUE(RetailGeneralInstance(**table, &instance).ok());
  const RuleSpec spec{0.03, 0.2, 1, 2, 1, 1};
  EXPECT_TRUE(CheckRules(instance, spec, rules).ok());
  EXPECT_FALSE(CheckSoundness(instance, spec, TamperSupport(rules)).ok());
  EXPECT_FALSE(CheckCompleteness1x1(instance, spec, DropOneByOne(rules)).ok());
}

TEST(CheckerTest, QuestSimpleStatement) {
  Catalog catalog;
  datagen::QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 200;
  auto table = datagen::MaterializeQuestTable(&catalog, "Quest", params);
  ASSERT_TRUE(table.ok());
  const RuleSet rules = Mine(
      &catalog,
      "MINE RULE QuestRules AS SELECT DISTINCT 1..3 item AS BODY, 1..1 item "
      "AS HEAD, SUPPORT, CONFIDENCE FROM Quest GROUP BY tid "
      "EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.5",
      "QuestRules");
  ASSERT_GT(rules.size(), 1u);
  MiningInstance instance;
  ASSERT_TRUE(SimpleInstance(**table, "tid", "item", &instance).ok());
  const RuleSpec spec{0.01, 0.5, 1, 3, 1, 1};
  EXPECT_TRUE(CheckRules(instance, spec, rules).ok());
  EXPECT_FALSE(CheckSoundness(instance, spec, TamperSupport(rules)).ok());
  EXPECT_FALSE(CheckCompleteness1x1(instance, spec, DropOneByOne(rules)).ok());
}

TEST(CheckerTest, RuleOutsideThresholdsIsRejected) {
  Catalog catalog;
  auto table = datagen::MakePaperPurchaseTable(&catalog);
  ASSERT_TRUE(table.ok());
  const RuleSet rules =
      Mine(&catalog, datagen::PaperExampleStatement(), "FilteredOrderedSets");
  MiningInstance instance;
  ASSERT_TRUE(RetailGeneralInstance(**table, &instance).ok());
  // {jackets} => {col_shirts} has confidence 0.5: a 0.6 threshold must
  // reject the emitted set.
  EXPECT_FALSE(CheckSoundness(instance, {0.2, 0.6, 1, -1, 1, -1}, rules).ok());
}

}  // namespace
}  // namespace e2e
