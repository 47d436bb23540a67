#include <gtest/gtest.h>

#include "crypto/post.h"
#include "ledger/account.h"
#include "ledger/chain.h"
#include "ledger/consensus.h"
#include "util/prng.h"

namespace fi::ledger {
namespace {

// ---------------------------------------------------------------------------
// Accounts
// ---------------------------------------------------------------------------

TEST(Accounts, CreateAndQuery) {
  Ledger ledger;
  const AccountId a = ledger.create_account(100);
  const AccountId b = ledger.create_account();
  EXPECT_TRUE(ledger.exists(a));
  EXPECT_TRUE(ledger.exists(b));
  EXPECT_NE(a, b);
  EXPECT_EQ(ledger.balance(a), 100u);
  EXPECT_EQ(ledger.balance(b), 0u);
  EXPECT_EQ(ledger.total_supply(), 100u);
}

TEST(Accounts, TransferMovesExactAmount) {
  Ledger ledger;
  const AccountId a = ledger.create_account(100);
  const AccountId b = ledger.create_account(5);
  ASSERT_TRUE(ledger.transfer(a, b, 30).is_ok());
  EXPECT_EQ(ledger.balance(a), 70u);
  EXPECT_EQ(ledger.balance(b), 35u);
  EXPECT_EQ(ledger.total_supply(), 105u);
}

TEST(Accounts, OverdraftRejectedWithoutSideEffects) {
  Ledger ledger;
  const AccountId a = ledger.create_account(10);
  const AccountId b = ledger.create_account(0);
  const auto status = ledger.transfer(a, b, 11);
  EXPECT_EQ(status.code(), util::ErrorCode::insufficient_funds);
  EXPECT_EQ(ledger.balance(a), 10u);
  EXPECT_EQ(ledger.balance(b), 0u);
}

TEST(Accounts, UnknownAccountsRejected) {
  Ledger ledger;
  const AccountId a = ledger.create_account(10);
  EXPECT_EQ(ledger.transfer(a, 999, 1).code(), util::ErrorCode::not_found);
  EXPECT_EQ(ledger.transfer(999, a, 1).code(), util::ErrorCode::not_found);
  EXPECT_EQ(ledger.mint(999, 1).code(), util::ErrorCode::not_found);
}

TEST(Accounts, MintGrowsSupply) {
  Ledger ledger;
  const AccountId a = ledger.create_account(1);
  ASSERT_TRUE(ledger.mint(a, 41).is_ok());
  EXPECT_EQ(ledger.balance(a), 42u);
  EXPECT_EQ(ledger.total_supply(), 42u);
}

TEST(Accounts, SupplyConservedUnderTransferStorm) {
  Ledger ledger;
  util::Xoshiro256 rng(7);
  std::vector<AccountId> accounts;
  for (int i = 0; i < 20; ++i) accounts.push_back(ledger.create_account(1000));
  for (int i = 0; i < 10'000; ++i) {
    const AccountId from = accounts[rng.uniform_below(accounts.size())];
    const AccountId to = accounts[rng.uniform_below(accounts.size())];
    (void)ledger.transfer(from, to, rng.uniform_below(200));
  }
  TokenAmount total = 0;
  for (AccountId a : accounts) total += ledger.balance(a);
  EXPECT_EQ(total, 20'000u);
  EXPECT_EQ(ledger.total_supply(), 20'000u);
}

// ---------------------------------------------------------------------------
// Chain
// ---------------------------------------------------------------------------

TEST(Chain, GenesisBeaconDeterministic) {
  Chain a(42), b(42), c(43);
  EXPECT_EQ(a.beacon(0), b.beacon(0));
  EXPECT_NE(a.beacon(0), c.beacon(0));
}

TEST(Chain, AppendLinksBlocks) {
  Chain chain(1);
  const Block& b0 = chain.append(10, 1, {});
  const Block& b1 = chain.append(20, 2, {{"File_Add", 5, {}}});
  EXPECT_EQ(b0.height, 0u);
  EXPECT_EQ(b1.height, 1u);
  EXPECT_EQ(b1.parent, chain.at(0).hash());
  EXPECT_TRUE(chain.validate());
}

TEST(Chain, BeaconEvolvesPerEpoch) {
  Chain chain(1);
  chain.append(1, 1, {});
  chain.append(2, 1, {});
  chain.append(3, 1, {});
  EXPECT_NE(chain.beacon(0), chain.beacon(1));
  EXPECT_NE(chain.beacon(1), chain.beacon(2));
}

TEST(Chain, TamperDetectedByValidate) {
  Chain chain(1);
  chain.append(1, 1, {});
  chain.append(2, 1, {{"Sector_Register", 9, {}}});
  // Rebuild an identical chain and check a different tx payload changes the
  // block hash (so parent links break on tamper).
  Chain other(1);
  other.append(1, 1, {});
  other.append(2, 1, {{"Sector_Register", 8, {}}});
  EXPECT_NE(chain.at(1).hash(), other.at(1).hash());
}

TEST(Chain, BlockHashCoversTransactions) {
  Block a;
  a.txs.push_back({"File_Add", 1, crypto::hash_u64s("p", {1})});
  Block b = a;
  b.txs[0].payload_hash = crypto::hash_u64s("p", {2});
  EXPECT_NE(a.hash(), b.hash());
}

// ---------------------------------------------------------------------------
// Expected-consensus election
// ---------------------------------------------------------------------------

TEST(Consensus, ZeroPowerNeverWins) {
  const crypto::Hash256 beacon = crypto::hash_u64s("b", {1});
  const crypto::Hash256 ticket = crypto::winning_ticket(beacon, 1, {});
  EXPECT_FALSE(election_wins(ticket, 0, 100));
}

TEST(Consensus, FullPowerAlwaysWins) {
  const crypto::Hash256 beacon = crypto::hash_u64s("b", {2});
  for (AccountId miner = 0; miner < 50; ++miner) {
    const crypto::Hash256 ticket = crypto::winning_ticket(beacon, miner, {});
    EXPECT_TRUE(election_wins(ticket, 100, 100));
  }
}

TEST(Consensus, WinRateTracksPowerShare) {
  // A miner with 30% power should win ~1 - (1-0.3) = 30% of epochs at
  // expected_winners = 1.
  std::vector<PowerEntry> table{
      {1, 30, crypto::hash_u64s("c", {1})},
      {2, 70, crypto::hash_u64s("c", {2})},
  };
  int wins_small = 0, wins_big = 0;
  constexpr int kEpochs = 20'000;
  for (int e = 0; e < kEpochs; ++e) {
    const crypto::Hash256 beacon =
        crypto::hash_u64s("epoch", {static_cast<std::uint64_t>(e)});
    const auto winners = run_election(beacon, table);
    for (AccountId w : winners) {
      if (w == 1) ++wins_small;
      if (w == 2) ++wins_big;
    }
  }
  EXPECT_NEAR(wins_small / double(kEpochs), 0.30, 0.02);
  EXPECT_NEAR(wins_big / double(kEpochs), 0.70, 0.02);
}

TEST(Consensus, ProposerIsAWinnerOrAbsent) {
  std::vector<PowerEntry> table{
      {1, 10, crypto::hash_u64s("c", {1})},
      {2, 10, crypto::hash_u64s("c", {2})},
      {3, 80, crypto::hash_u64s("c", {3})},
  };
  int proposals = 0;
  for (int e = 0; e < 2000; ++e) {
    const crypto::Hash256 beacon =
        crypto::hash_u64s("epoch2", {static_cast<std::uint64_t>(e)});
    const auto proposer = elect_proposer(beacon, table);
    const auto winners = run_election(beacon, table);
    if (proposer.has_value()) {
      ++proposals;
      EXPECT_NE(std::find(winners.begin(), winners.end(), *proposer),
                winners.end());
    } else {
      EXPECT_TRUE(winners.empty());
    }
  }
  // With total power split this way some epochs elect nobody, but most do.
  EXPECT_GT(proposals, 1000);
}

}  // namespace
}  // namespace fi::ledger
