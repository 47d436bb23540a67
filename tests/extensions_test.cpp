#include <gtest/gtest.h>

#include "analysis/bounds.h"
#include "analysis/planner.h"
#include "core/retrieval_market.h"
#include "ledger/account.h"

/// Tests for the extension features: the competitive retrieval market
/// (§III-E) and the §VI-A parameter planner.
namespace fi {
namespace {

using namespace fi::core;

// ---------------------------------------------------------------------------
// RetrievalMarket
// ---------------------------------------------------------------------------

struct MarketFixture : ::testing::Test {
  ledger::Ledger ledger;
  RetrievalMarket market{ledger, /*default_price=*/3};
  AccountId client = ledger.create_account(10'000);
  AccountId cheap = ledger.create_account(0);
  AccountId pricey = ledger.create_account(0);
};

TEST_F(MarketFixture, CheapestAskWinsSelection) {
  market.post_ask(cheap, 1);
  market.post_ask(pricey, 7);
  const auto winner = market.select({pricey, cheap});
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(*winner, cheap);
}

TEST_F(MarketFixture, DefaultPriceAppliesToSilentProviders) {
  EXPECT_EQ(market.ask_of(cheap), 3u);
  market.post_ask(cheap, 1);
  EXPECT_EQ(market.ask_of(cheap), 1u);
}

TEST_F(MarketFixture, TiesBreakDeterministically) {
  market.post_ask(cheap, 2);
  market.post_ask(pricey, 2);
  const AccountId low = std::min(cheap, pricey);
  EXPECT_EQ(*market.select({pricey, cheap}), low);
  EXPECT_EQ(*market.select({cheap, pricey}), low);
}

TEST_F(MarketFixture, EmptyCandidateSetSelectsNothing) {
  EXPECT_FALSE(market.select({}).has_value());
}

TEST_F(MarketFixture, SettleMovesQuoteAndTracksVolume) {
  market.post_ask(cheap, 2);
  ASSERT_TRUE(market.settle(client, cheap, 3000).is_ok());  // 3 KiB * 2
  EXPECT_EQ(ledger.balance(cheap), 6u);
  EXPECT_EQ(ledger.balance(client), 10'000u - 6u);
  EXPECT_EQ(market.bytes_served(cheap), 3000u);
  EXPECT_EQ(market.revenue(cheap), 6u);
  EXPECT_EQ(market.retrievals_settled(), 1u);
}

TEST_F(MarketFixture, SettleFailsWithoutFundsAndRecordsNothing) {
  const AccountId broke = ledger.create_account(1);
  market.post_ask(pricey, 100);
  EXPECT_EQ(market.settle(broke, pricey, 2048).code(),
            util::ErrorCode::insufficient_funds);
  EXPECT_EQ(market.bytes_served(pricey), 0u);
  EXPECT_EQ(market.retrievals_settled(), 0u);
}

// ---------------------------------------------------------------------------
// §VI-A planner
// ---------------------------------------------------------------------------

TEST(Planner, BalancedCapParaEquatesTheoremOneRestrictions) {
  analysis::WorkloadProfile w;
  w.mean_size_times_value = 1.0;  // r1 = 1
  w.mean_value_per_size = 1.0;
  for (std::uint32_t k : {2u, 10u, 20u}) {
    const double cap_para = analysis::balanced_cap_para(w, k);
    // r2 = mean_value_per_size / capPara must equal 2*r1*k.
    EXPECT_NEAR(1.0 / cap_para, 2.0 * k, 1e-9);
  }
}

TEST(Planner, SizeFractionMatchesTheoremTwo) {
  // cap/size = 1000 gives the paper's < 1e-50 at Ns <= 1e12; the planner
  // inverts that relation.
  const double fraction = analysis::max_size_fraction(1e12, 1e-50);
  EXPECT_NEAR(1.0 / fraction, 1000.0, 10.0);
  // Looser targets allow bigger files.
  EXPECT_GT(analysis::max_size_fraction(1e6, 1e-6),
            analysis::max_size_fraction(1e6, 1e-30));
}

TEST(Planner, FindsPaperScaleConfiguration) {
  analysis::WorkloadProfile w;
  w.mean_size_times_value = 1.0;
  // The paper's capPara=1e3 corresponds to value-rich workloads; pick the
  // profile that balances there at k=20: value_per_size = 2*k*capPara*r1.
  w.mean_value_per_size = 2.0 * 20 * 1000.0;
  analysis::RiskTargets targets;
  targets.lambda = 0.5;
  targets.max_deposit_ratio = 0.005;
  const auto plan = analysis::plan_network(1e6, w, targets);
  ASSERT_TRUE(plan.feasible);
  // The planner may find a slightly smaller k than the paper's 20 (the
  // budget is met a touch earlier on the balanced-capPara curve), but it
  // lands in the same neighbourhood and within budget.
  EXPECT_GE(plan.k, 16u);
  EXPECT_LE(plan.k, 20u);
  EXPECT_LE(plan.gamma_deposit, targets.max_deposit_ratio);
  EXPECT_NEAR(plan.cap_para, analysis::balanced_cap_para(w, plan.k), 1e-9);
  EXPECT_GT(plan.size_limit_fraction, 0.0);
  // Pinning k = 20 and capPara = 1000 reproduces the paper's 0.0046.
  EXPECT_NEAR(analysis::theorem4_deposit_ratio_bound(0.5, 20, 1e6, 1e3),
              0.0046, 0.0002);
}

TEST(Planner, InfeasibleBudgetReported) {
  analysis::WorkloadProfile w;
  w.mean_value_per_size = 2.0;  // balanced capPara = 1/k: tiny
  analysis::RiskTargets targets;
  targets.lambda = 0.9;                 // survive near-total corruption
  targets.max_deposit_ratio = 1e-6;    // with almost no deposit
  const auto plan = analysis::plan_network(1e4, w, targets, /*k_max=*/32);
  EXPECT_FALSE(plan.feasible);
}

TEST(Planner, HigherLambdaNeedsBiggerK) {
  analysis::WorkloadProfile w;
  w.mean_value_per_size = 2.0 * 20 * 1000.0;
  analysis::RiskTargets mild, harsh;
  mild.lambda = 0.3;
  harsh.lambda = 0.7;
  mild.max_deposit_ratio = harsh.max_deposit_ratio = 0.01;
  const auto plan_mild = analysis::plan_network(1e6, w, mild);
  const auto plan_harsh = analysis::plan_network(1e6, w, harsh);
  ASSERT_TRUE(plan_mild.feasible);
  ASSERT_TRUE(plan_harsh.feasible);
  EXPECT_LE(plan_mild.k, plan_harsh.k);
}

}  // namespace
}  // namespace fi
