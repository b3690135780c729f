#include "eval/evaluator.h"

#include <gtest/gtest.h>

#include <limits>

namespace dekg {
namespace {

TEST(RankOfTest, StrictOrdering) {
  EXPECT_DOUBLE_EQ(RankOf(5.0, {1.0, 2.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(RankOf(2.5, {1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(RankOf(0.0, {1.0, 2.0, 3.0}), 4.0);
}

TEST(RankOfTest, TiesCountHalf) {
  EXPECT_DOUBLE_EQ(RankOf(2.0, {2.0, 2.0}), 2.0);      // 1 + 0 + 2/2
  EXPECT_DOUBLE_EQ(RankOf(2.0, {3.0, 2.0, 1.0}), 2.5);  // 1 + 1 + 1/2
}

TEST(RankOfTest, EmptyNegativesIsRankOne) {
  EXPECT_DOUBLE_EQ(RankOf(0.0, {}), 1.0);
}

TEST(RankOfTest, NanPositiveRanksBelowEveryCandidate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(RankOf(nan, {1.0, 2.0, 3.0}), 4.0);
  EXPECT_DOUBLE_EQ(RankOf(nan, {nan, nan}), 3.0);
  EXPECT_DOUBLE_EQ(RankOf(nan, {}), 1.0);
  // Infinities are no better: a diverged scorer never ranks first.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(RankOf(inf, {1.0, 2.0}), 3.0);
  EXPECT_DOUBLE_EQ(RankOf(-inf, {1.0, 2.0}), 3.0);
}

TEST(RankOfTest, NanNegativeBeatsThePositive) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(RankOf(5.0, {nan, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(RankOf(5.0, {nan, nan, nan}), 4.0);
  EXPECT_DOUBLE_EQ(RankOf(2.0, {nan, 2.0, 3.0}), 3.5);  // 1 + 2 + 1/2
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(RankOf(5.0, {-inf, inf}), 3.0);
}

TEST(RankOfTest, DivergedModelScoresWorstMrr) {
  // A model whose every score is NaN must not score a perfect MRR.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RankingMetrics m;
  for (int i = 0; i < 3; ++i) m.Accumulate(RankOf(nan, {nan, nan, nan, nan}));
  m.Finalize();
  EXPECT_DOUBLE_EQ(m.mrr, 0.2);
  EXPECT_DOUBLE_EQ(m.hits_at_1, 0.0);
}

TEST(RankingMetricsTest, AccumulateAndFinalize) {
  RankingMetrics m;
  m.Accumulate(1.0);
  m.Accumulate(4.0);
  m.Accumulate(20.0);
  m.Finalize();
  EXPECT_EQ(m.num_tasks, 3);
  EXPECT_NEAR(m.mrr, (1.0 + 0.25 + 0.05) / 3.0, 1e-9);
  EXPECT_NEAR(m.hits_at_1, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.hits_at_5, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.hits_at_10, 2.0 / 3.0, 1e-9);
}

TEST(RankingMetricsTest, MergeSumsBeforeFinalize) {
  RankingMetrics a, b;
  a.Accumulate(1.0);
  b.Accumulate(2.0);
  a.Merge(b);
  a.Finalize();
  EXPECT_EQ(a.num_tasks, 2);
  EXPECT_NEAR(a.mrr, 0.75, 1e-9);
}

// An oracle that scores the dataset's known positives highest.
class OraclePredictor : public LinkPredictor {
 public:
  explicit OraclePredictor(const DekgDataset* dataset) : dataset_(dataset) {}
  std::string Name() const override { return "Oracle"; }
  std::vector<double> ScoreTriples(const KnowledgeGraph&,
                                   const std::vector<Triple>& triples) override {
    std::vector<double> scores;
    for (const Triple& t : triples) {
      scores.push_back(dataset_->filter_set().count(t) > 0 ? 1.0 : 0.0);
    }
    return scores;
  }
  int64_t ParameterCount() const override { return 0; }

 private:
  const DekgDataset* dataset_;
};

class ConstantPredictor : public LinkPredictor {
 public:
  std::string Name() const override { return "Constant"; }
  std::vector<double> ScoreTriples(const KnowledgeGraph&,
                                   const std::vector<Triple>& triples) override {
    return std::vector<double>(triples.size(), 0.0);
  }
  int64_t ParameterCount() const override { return 0; }
};

DekgDataset TinyDataset() {
  // 4 original (0-3), 3 emerging (4-6), 3 relations.
  std::vector<Triple> train{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {0, 1, 3}};
  std::vector<Triple> emerging{{4, 0, 5}, {5, 1, 6}};
  std::vector<LabeledLink> test{{{4, 2, 6}, LinkKind::kEnclosing},
                                {{0, 0, 4}, LinkKind::kBridging},
                                {{5, 1, 2}, LinkKind::kBridging}};
  return DekgDataset("tiny", 4, 3, 3, train, emerging, {}, test);
}

TEST(EvaluatorTest, OracleGetsPerfectScores) {
  DekgDataset dataset = TinyDataset();
  OraclePredictor oracle(&dataset);
  EvalConfig config;
  config.num_entity_negatives = 5;
  EvalResult result = Evaluate(&oracle, dataset, config);
  EXPECT_DOUBLE_EQ(result.overall.mrr, 1.0);
  EXPECT_DOUBLE_EQ(result.overall.hits_at_1, 1.0);
  EXPECT_DOUBLE_EQ(result.enclosing.hits_at_1, 1.0);
  EXPECT_DOUBLE_EQ(result.bridging.hits_at_1, 1.0);
}

TEST(EvaluatorTest, ConstantScorerLandsMidRank) {
  DekgDataset dataset = TinyDataset();
  ConstantPredictor constant;
  EvalConfig config;
  config.num_entity_negatives = 5;
  EvalResult result = Evaluate(&constant, dataset, config);
  // All ties: expected rank = 1 + n/2 so MRR well below 1 and above 0.
  EXPECT_LT(result.overall.mrr, 0.5);
  EXPECT_GT(result.overall.mrr, 0.1);
  EXPECT_DOUBLE_EQ(result.overall.hits_at_1, 0.0);
}

TEST(EvaluatorTest, TaskCountsPerLink) {
  DekgDataset dataset = TinyDataset();
  ConstantPredictor constant;
  EvalConfig config;
  config.num_entity_negatives = 3;
  config.include_relation_task = true;
  EvalResult result = Evaluate(&constant, dataset, config);
  // 3 links x 3 tasks.
  EXPECT_EQ(result.overall.num_tasks, 9);
  EXPECT_EQ(result.enclosing.num_tasks, 3);
  EXPECT_EQ(result.bridging.num_tasks, 6);

  config.include_relation_task = false;
  result = Evaluate(&constant, dataset, config);
  EXPECT_EQ(result.overall.num_tasks, 6);
}

TEST(EvaluatorTest, MaxLinksCapRespected) {
  DekgDataset dataset = TinyDataset();
  ConstantPredictor constant;
  EvalConfig config;
  config.num_entity_negatives = 3;
  config.max_links = 1;
  EvalResult result = Evaluate(&constant, dataset, config);
  EXPECT_EQ(result.overall.num_tasks, 3);
}

TEST(EvaluatorTest, DeterministicForFixedSeed) {
  DekgDataset dataset = TinyDataset();
  OraclePredictor oracle(&dataset);
  EvalConfig config;
  config.seed = 5;
  EvalResult a = Evaluate(&oracle, dataset, config);
  EvalResult b = Evaluate(&oracle, dataset, config);
  EXPECT_DOUBLE_EQ(a.overall.mrr, b.overall.mrr);
  EXPECT_EQ(a.overall.num_tasks, b.overall.num_tasks);
}

// Filtered setting: a corrupted triple that is itself a known positive must
// never appear as a negative. The oracle scores known positives 1.0, so if
// filtering failed it would tie with the target and push its rank above 1.
TEST(EvaluatorTest, FilteredNegativesExcludeKnownTriples) {
  DekgDataset dataset = TinyDataset();
  OraclePredictor oracle(&dataset);
  EvalConfig config;
  config.num_entity_negatives = 6;  // small world: forces collisions
  EvalResult result = Evaluate(&oracle, dataset, config);
  EXPECT_DOUBLE_EQ(result.overall.hits_at_1, 1.0);
}

}  // namespace
}  // namespace dekg
