// Unit tests for the optimizer stack: candidate enumeration (AND-OR
// memo), the §5.1.1 pruning heuristics, the cost model, and the BestPlan
// search (Algorithm 1) validity guarantee (Definition 1).

#include <gtest/gtest.h>

#include "src/opt/optimizer.h"
#include "src/workload/gus.h"
#include "tests/test_util.h"

namespace qsys {
namespace {

using ::qsys::testing::BuildTinyBioDataset;
using ::qsys::testing::FastTestConfig;

class OptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = std::make_unique<QSystem>(FastTestConfig());
    ASSERT_TRUE(BuildTinyBioDataset(*sys_).ok());
    matcher_ = std::make_unique<KeywordMatcher>(&sys_->inverted_index(),
                                                &sys_->catalog());
    gen_ = std::make_unique<CandidateGenerator>(&sys_->schema_graph(),
                                                matcher_.get());
    cost_model_ = std::make_unique<CostModel>(
        &sys_->catalog(), DelayParams{}, &sys_->inverted_index(), nullptr,
        nullptr);
  }

  std::vector<const ConjunctiveQuery*> MakeQueries(
      const std::string& keywords, UserQuery* storage) {
    auto uq = gen_->Generate(keywords, 5, CandidateGenOptions{});
    EXPECT_TRUE(uq.ok()) << uq.status().ToString();
    *storage = std::move(uq).value();
    int next_id = 1;
    std::vector<const ConjunctiveQuery*> out;
    for (ConjunctiveQuery& cq : storage->cqs) {
      cq.id = next_id++;
      out.push_back(&cq);
    }
    return out;
  }

  std::unique_ptr<QSystem> sys_;
  std::unique_ptr<KeywordMatcher> matcher_;
  std::unique_ptr<CandidateGenerator> gen_;
  std::unique_ptr<CostModel> cost_model_;
};

TEST_F(OptTest, EnumerationFindsSharedSubexpressions) {
  // Mirror the paper's Example 2: a longer query whose CQs extend a
  // shorter query's CQs — their common joins must surface as shared
  // candidates.
  UserQuery storage1, storage2;
  auto queries = MakeQueries("membrane gene", &storage1);
  auto extended = MakeQueries("protein membrane gene", &storage2);
  int offset = 100;
  for (ConjunctiveQuery& cq : storage2.cqs) cq.id += offset;
  queries.insert(queries.end(), extended.begin(), extended.end());
  ASSERT_GE(queries.size(), 2u);
  CandidateSet cands = EnumerateCandidates(queries, 4);
  EXPECT_GT(cands.enumerated, 0);
  // Every candidate has >= 2 atoms, is connected, and is a subexpression
  // of each query in its S[J] set.
  for (const CandidateInput& c : cands.inputs) {
    EXPECT_GE(c.expr.num_atoms(), 2);
    EXPECT_TRUE(c.expr.IsConnected());
    for (int id : c.cq_ids) {
      const ConjunctiveQuery* q = nullptr;
      for (const ConjunctiveQuery* qq : queries) {
        if (qq->id == id) q = qq;
      }
      ASSERT_NE(q, nullptr);
      EXPECT_TRUE(q->expr.ContainsAsSubexpression(c.expr))
          << c.expr.ToString() << " not in " << q->expr.ToString();
    }
  }
  // With overlapping CQs, at least one candidate must be shared.
  bool any_shared = false;
  for (const CandidateInput& c : cands.inputs) {
    if (c.cq_ids.size() >= 2) any_shared = true;
  }
  EXPECT_TRUE(any_shared);
}

TEST_F(OptTest, EnumerationRespectsSizeCap) {
  UserQuery storage;
  auto queries = MakeQueries("protein membrane gene", &storage);
  CandidateSet cands = EnumerateCandidates(queries, 2);
  for (const CandidateInput& c : cands.inputs) {
    EXPECT_LE(c.expr.num_atoms(), 2);
  }
}

TEST_F(OptTest, PruningDropsUnsharedLargeCandidates) {
  UserQuery storage;
  auto queries = MakeQueries("membrane gene", &storage);
  CandidateSet cands = EnumerateCandidates(queries, 4);
  PruningOptions strict;
  strict.min_share = 2;
  strict.low_cardinality_threshold = 0.0;  // sharing is the only utility
  std::vector<CandidateInput> pruned = ApplyPruningHeuristics(
      cands.inputs, queries, *cost_model_, sys_->catalog(), strict);
  for (const CandidateInput& c : pruned) {
    EXPECT_GE(static_cast<int>(c.cq_ids.size()), 2);
  }
}

TEST_F(OptTest, PruningH4RejectsPartialOverlap) {
  UserQuery storage;
  auto queries = MakeQueries("membrane gene", &storage);
  CandidateSet cands = EnumerateCandidates(queries, 4);
  PruningOptions options;
  std::vector<CandidateInput> pruned = ApplyPruningHeuristics(
      cands.inputs, queries, *cost_model_, sys_->catalog(), options);
  for (const CandidateInput& c : pruned) {
    for (const ConjunctiveQuery* q : queries) {
      bool overlaps = q->expr.Overlaps(c.expr);
      bool contained = q->expr.ContainsAsSubexpression(c.expr);
      EXPECT_TRUE(!overlaps || contained);
    }
  }
}

TEST_F(OptTest, StreamabilityFollowsHeuristic2) {
  // Scored atoms stream; unscored large atoms probe.
  PruningOptions options;
  options.tau_stream_threshold = 4.0;  // prot2gene has 20 rows > tau
  TableId p2g = sys_->catalog().FindTable("prot2gene").value();
  TableId protein = sys_->catalog().FindTable("protein_info").value();
  Atom unscored;
  unscored.table = p2g;
  Atom scored;
  scored.table = protein;
  EXPECT_FALSE(AtomIsStreamable(unscored, sys_->catalog(), *cost_model_,
                                options));
  EXPECT_TRUE(AtomIsStreamable(scored, sys_->catalog(), *cost_model_,
                               options));
  // Below tau, even unscored relations may stream.
  options.tau_stream_threshold = 1000.0;
  EXPECT_TRUE(AtomIsStreamable(unscored, sys_->catalog(), *cost_model_,
                               options));
}

TEST_F(OptTest, CostModelCardinalitiesAreSane) {
  TableId protein = sys_->catalog().FindTable("protein_info").value();
  Expr single;
  Atom a;
  a.table = protein;
  single.AddAtom(a);
  single.Normalize();
  double card = cost_model_->EstimateCardinality(single);
  EXPECT_DOUBLE_EQ(card,
                   static_cast<double>(
                       sys_->catalog().table(protein).num_rows()));
  // A selection shrinks the estimate.
  Expr selected;
  Atom b;
  b.table = protein;
  Selection sel;
  sel.kind = SelectionKind::kContainsTerm;
  sel.column = 1;
  sel.constant = Value(std::string("membrane"));
  b.selections.push_back(sel);
  selected.AddAtom(b);
  selected.Normalize();
  EXPECT_LT(cost_model_->EstimateCardinality(selected), card);
}

TEST_F(OptTest, JoinCardinalityUsesDistinctCounts) {
  UserQuery storage;
  auto queries = MakeQueries("membrane gene", &storage);
  for (const ConjunctiveQuery* q : queries) {
    double card = cost_model_->EstimateCardinality(q->expr);
    EXPECT_GT(card, 0.0);
    // Join estimates must not exceed the full cross product.
    double cross = 1.0;
    for (const Atom& atom : q->expr.atoms()) {
      cross *= static_cast<double>(
          sys_->catalog().table(atom.table).num_rows());
    }
    EXPECT_LE(card, cross);
  }
}

TEST_F(OptTest, BestPlanAssignmentIsValidPerDefinition1) {
  UserQuery storage;
  auto queries = MakeQueries("membrane gene", &storage);
  CandidateSet cands = EnumerateCandidates(queries, 4);
  PruningOptions options;
  std::vector<CandidateInput> pruned = ApplyPruningHeuristics(
      cands.inputs, queries, *cost_model_, sys_->catalog(), options);
  BestPlanSearch search(cost_model_.get(), &sys_->catalog(), &options, 5,
                        -1);
  BestPlanResult best = search.Run(queries, pruned);
  EXPECT_GT(best.nodes_explored, 0);
  EXPECT_LT(best.cost, std::numeric_limits<double>::infinity());
  // Definition 1: for each query and each of its atoms, exactly one
  // assigned input covers the atom.
  for (const ConjunctiveQuery* q : queries) {
    for (const Atom& atom : q->expr.atoms()) {
      int covering = 0;
      for (const CandidateInput& input : best.assignment.inputs) {
        if (input.cq_ids.count(q->id) == 0) continue;
        if (input.expr.FindAtom(atom.Key()) >= 0) ++covering;
      }
      EXPECT_EQ(covering, 1)
          << "atom of " << q->expr.ToString() << " covered " << covering
          << " times";
    }
    // Every query has at least one streaming input.
    EXPECT_FALSE(best.assignment.StreamInputsOf(q->id).empty());
  }
}

TEST_F(OptTest, BestPlanWithSharingIsNoWorse) {
  UserQuery storage;
  auto queries = MakeQueries("membrane gene", &storage);
  CandidateSet cands = EnumerateCandidates(queries, 4);
  PruningOptions options;
  std::vector<CandidateInput> pruned = ApplyPruningHeuristics(
      cands.inputs, queries, *cost_model_, sys_->catalog(), options);
  BestPlanSearch with(cost_model_.get(), &sys_->catalog(), &options, 5, -1);
  BestPlanResult shared = with.Run(queries, pruned);
  BestPlanSearch without(cost_model_.get(), &sys_->catalog(), &options, 5,
                         -1);
  BestPlanResult bare = without.Run(queries, {});
  EXPECT_LE(shared.cost, bare.cost + 1e-9);
}

TEST_F(OptTest, OptimizerSharingModesProduceGroups) {
  UserQuery storage;
  auto queries = MakeQueries("membrane gene", &storage);
  (void)queries;
  storage.id = 1;
  Optimizer opt(&sys_->catalog(), &sys_->inverted_index(), nullptr,
                nullptr, DelayParams{});
  OptimizerOptions options;
  options.k = 5;
  options.sharing = SharingMode::kNone;
  OptimizeOutcome none = opt.OptimizeBatch({&storage}, options, -1);
  EXPECT_EQ(none.groups.size(), storage.cqs.size());
  EXPECT_EQ(none.candidates_considered, 0);  // sharing disabled
  options.sharing = SharingMode::kWithinUq;
  OptimizeOutcome uq = opt.OptimizeBatch({&storage}, options, -1);
  EXPECT_EQ(uq.groups.size(), 1u);
  options.sharing = SharingMode::kFull;
  OptimizeOutcome full = opt.OptimizeBatch({&storage}, options, -1);
  EXPECT_EQ(full.groups.size(), 1u);
  EXPECT_GT(full.wall_seconds, 0.0);
}

TEST_F(OptTest, StatsRegistryOverridesEstimates) {
  StatsRegistry registry;
  TableId protein = sys_->catalog().FindTable("protein_info").value();
  Expr single;
  Atom a;
  a.table = protein;
  single.AddAtom(a);
  single.Normalize();
  registry.RecordStream(single.Signature(), 5, true, 5);
  CostModel observed(&sys_->catalog(), DelayParams{},
                     &sys_->inverted_index(), &registry, nullptr);
  EXPECT_DOUBLE_EQ(observed.EstimateCardinality(single), 5.0);
  auto looked = registry.Lookup(single.Signature());
  ASSERT_TRUE(looked.has_value());
  EXPECT_TRUE(looked->exhausted);
  EXPECT_EQ(registry.Lookup("missing").has_value(), false);
}

// Pins the BestPlan search on a fixed small batch over the GUS shape the
// fuzz harness serves (80 relations, seed 3): the nodes it expands, the
// winning cost and the journal's retained alternatives. Canonical
// (index-increasing) enumeration visits every chosen-candidate set once,
// so the search needs no memo; this test holds its output fixed.
TEST(BestPlanPinTest, FixedGusBatchSearchIsPinned) {
  QSystem sys(FastTestConfig());
  GusOptions gus;
  gus.num_relations = 80;
  gus.min_rows = 60;
  gus.max_rows = 180;
  gus.seed = 3;
  ASSERT_TRUE(BuildGusDataset(sys, gus).ok());
  KeywordMatcher matcher(&sys.inverted_index(), &sys.catalog());
  CandidateGenerator gen(&sys.schema_graph(), &matcher);
  CostModel cost_model(&sys.catalog(), DelayParams{}, &sys.inverted_index(),
                       nullptr, nullptr);
  std::vector<UserQuery> storage;
  CandidateGenOptions gen_options;
  gen_options.max_cqs = 10;
  for (const char* keywords : {"gene expression", "gene regulation",
                               "regulation expression", "gene promoter"}) {
    auto uq = gen.Generate(keywords, 5, gen_options);
    ASSERT_TRUE(uq.ok()) << keywords << ": " << uq.status().ToString();
    storage.push_back(std::move(uq).value());
  }
  std::vector<const ConjunctiveQuery*> queries;
  int next_id = 1;
  for (UserQuery& uq : storage) {
    for (ConjunctiveQuery& cq : uq.cqs) {
      cq.id = next_id++;
      queries.push_back(&cq);
    }
  }
  CandidateSet cands = EnumerateCandidates(queries, 4);
  PruningOptions options;
  std::vector<CandidateInput> pruned = ApplyPruningHeuristics(
      cands.inputs, queries, cost_model, sys.catalog(), options);
  BestPlanSearch search(&cost_model, &sys.catalog(), &options, 5, -1,
                        /*collect_alternatives=*/true);
  BestPlanResult best = search.Run(queries, pruned);
  EXPECT_EQ(queries.size(), 36u);
  EXPECT_EQ(best.num_candidates, 12);
  EXPECT_EQ(best.nodes_explored, 64);
  EXPECT_DOUBLE_EQ(best.cost, 3243505.6838076953);
  // Every atom here is occurrence 0 with no selections, so descriptors
  // are pinned with that suffix elided: "A<table>.0.<digest>" ->
  // "A<table>".
  struct Pinned {
    double cost;
    int pushdowns;
    const char* desc;
  };
  const std::vector<Pinned> expected = {
      {3243505.6838076953, 2,
       "A5A26A40A61|E0.0-2.2|E0.0-3.1|E1.0-3.2"
       "+A2A29A64A75|E0.0-2.1|E0.0-3.1|E1.0-2.2"},
      {3384629.9304892351, 2,
       "A5A26A40A61|E0.0-2.2|E0.0-3.1|E1.0-3.2+A2A64A75|E0.0-1.1|E0.0-2.1"},
      {3437916.7466692599, 2,
       "A5A40A61|E0.0-1.2|E0.0-2.1+A2A29A64A75|E0.0-2.1|E0.0-3.1|E1.0-2.2"},
      {3465684.8863684144, 2,
       "A5A26A40A61|E0.0-2.2|E0.0-3.1|E1.0-3.2+A2A29A64|E0.0-2.1|E1.0-2.2"},
      {3469942.8863684144, 3,
       "A5A26A40A61|E0.0-2.2|E0.0-3.1|E1.0-3.2+A2A75|E0.0-1.1+A29A64|E0.0-1.2"},
      {3493970.3964348198, 2,
       "A5A26A61|E0.0-2.1|E1.0-2.2+A2A29A64A75|E0.0-2.1|E0.0-3.1|E1.0-2.2"},
      {3498456.3964348198, 3,
       "A26A61|E0.0-1.2+A5A40|E0.0-1.2+A2A29A64A75|E0.0-2.1|E0.0-3.1|E1.0-2.2"},
      {3579040.9933507997, 2,
       "A5A40A61|E0.0-1.2|E0.0-2.1+A2A64A75|E0.0-1.1|E0.0-2.1"},
  };
  const std::string suffix = ".0." + std::to_string(SelectionDigest({}));
  ASSERT_EQ(best.alternatives.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const PlanAlternative& alt = best.alternatives[i];
    std::string desc = alt.desc;
    for (size_t at = desc.find(suffix); at != std::string::npos;
         at = desc.find(suffix)) {
      desc.erase(at, suffix.size());
    }
    EXPECT_DOUBLE_EQ(alt.cost, expected[i].cost) << "alternative " << i;
    EXPECT_EQ(alt.pushdowns, expected[i].pushdowns) << "alternative " << i;
    EXPECT_EQ(desc, expected[i].desc) << "alternative " << i;
  }
}

}  // namespace
}  // namespace qsys
