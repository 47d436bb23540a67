#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/network.h"
#include "crypto/merkle.h"
#include "crypto/porep.h"
#include "crypto/post.h"
#include "ledger/account.h"
#include "util/binary_io.h"
#include "util/prng.h"

namespace fi::core {
namespace {

/// Metadata-mode fixture: proofs are trusted declarations, so protocol
/// control flow can be tested without sealing bytes (the cryptographic path
/// is covered by `AgentsFixture` below).
class NetworkFixture : public ::testing::Test {
 protected:
  static Params test_params() {
    Params p;
    p.min_capacity = 1024;
    p.min_value = 10;
    p.k = 2;
    p.cap_para = 10.0;
    p.gamma_deposit = 0.5;  // generous pool so compensation is visible
    p.proof_cycle = 100;
    p.proof_due = 150;
    p.proof_deadline = 300;
    p.avg_refresh = 1000.0;  // effectively no refresh unless a test wants it
    p.verify_proofs = false;
    p.cr_size = 256;
    return p;
  }

  void build(Params p, int sectors = 4, ByteCount capacity = 4 * 1024,
             std::uint64_t seed = 7) {
    params = p;
    net = std::make_unique<Network>(p, ledger, seed);
    net->subscribe([this](const Event& e) { events.push_back(e); });
    client = ledger.create_account(1'000'000);
    for (int i = 0; i < sectors; ++i) {
      providers.push_back(ledger.create_account(1'000'000));
      auto id = net->sector_register(providers.back(), capacity);
      EXPECT_TRUE(id.is_ok()) << id.status().to_string();
      sectors_.push_back(id.value());
    }
  }

  /// Adds a file and confirms every replica, returning the id.
  FileId add_and_store(ByteCount size, TokenAmount value) {
    auto id = net->file_add(client, {size, value, {}});
    EXPECT_TRUE(id.is_ok()) << id.status().to_string();
    confirm_all(id.value());
    const Time deadline = net->now() + params.transfer_window(size);
    net->advance_to(deadline);
    EXPECT_TRUE(net->file_exists(id.value()));
    return id.value();
  }

  void confirm_all(FileId file) {
    for (ReplicaIndex i = 0; i < net->allocations().replica_count(file); ++i) {
      const AllocEntry& e = net->allocations().entry(file, i);
      if (e.state != AllocState::alloc || e.next == kNoSector) continue;
      const ProviderId owner = net->sectors().at(e.next).owner;
      auto status =
          net->file_confirm(owner, file, i, e.next, {}, std::nullopt);
      EXPECT_TRUE(status.is_ok()) << status.to_string();
    }
  }

  template <typename E>
  [[nodiscard]] std::vector<E> events_of() const {
    std::vector<E> out;
    for (const Event& e : events) {
      if (const E* ev = std::get_if<E>(&e)) out.push_back(*ev);
    }
    return out;
  }

  /// Every token in the system is in a known account.
  [[nodiscard]] TokenAmount system_total() const {
    TokenAmount total = ledger.balance(client);
    for (AccountId p : providers) total += ledger.balance(p);
    total += ledger.balance(net->escrow_account());
    total += ledger.balance(net->pool_account());
    total += ledger.balance(net->rent_pool_account());
    total += ledger.balance(net->gas_sink_account());
    total += ledger.balance(net->traffic_escrow_account());
    return total;
  }

  Params params;
  ledger::Ledger ledger;
  std::unique_ptr<Network> net;
  ClientId client = 0;
  std::vector<ProviderId> providers;
  std::vector<SectorId> sectors_;
  std::vector<Event> events;
};

// ---------------------------------------------------------------------------
// Sector registration / disable
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, RegisterPledgesDeposit) {
  build(test_params(), 1);
  const TokenAmount deposit = params.sector_deposit(4 * 1024);
  EXPECT_EQ(net->deposits().remaining(sectors_[0]), deposit);
  EXPECT_EQ(ledger.balance(providers[0]),
            1'000'000 - deposit - params.gas_per_task);
}

TEST_F(NetworkFixture, RegisterRejectsBadCapacityAndPoorProvider) {
  build(test_params(), 1);
  EXPECT_EQ(net->sector_register(providers[0], 1000).status().code(),
            util::ErrorCode::invalid_argument);
  const AccountId pauper = ledger.create_account(1);
  EXPECT_EQ(net->sector_register(pauper, 1024).status().code(),
            util::ErrorCode::insufficient_funds);
}

TEST_F(NetworkFixture, DisableEmptySectorRefundsImmediately) {
  build(test_params(), 1);
  const TokenAmount before = ledger.balance(providers[0]);
  ASSERT_TRUE(net->sector_disable(providers[0], sectors_[0]).is_ok());
  EXPECT_EQ(net->sectors().at(sectors_[0]).state, SectorState::removed);
  EXPECT_EQ(ledger.balance(providers[0]),
            before + params.sector_deposit(4 * 1024) - params.gas_per_task);
  EXPECT_EQ(events_of<SectorRemoved>().size(), 1u);
}

TEST_F(NetworkFixture, DisableRequiresOwnership) {
  build(test_params(), 2);
  EXPECT_EQ(net->sector_disable(providers[0], sectors_[1]).code(),
            util::ErrorCode::permission_denied);
}

// ---------------------------------------------------------------------------
// File_Add validation and allocation
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, FileAddValidatesInputs) {
  build(test_params());
  EXPECT_EQ(net->file_add(client, {0, 10, {}}).status().code(),
            util::ErrorCode::invalid_argument);
  EXPECT_EQ(net->file_add(client, {100, 15, {}}).status().code(),
            util::ErrorCode::invalid_argument);
  EXPECT_EQ(net->file_add(client, {100, 0, {}}).status().code(),
            util::ErrorCode::invalid_argument);
  EXPECT_EQ(net->file_add(999, {100, 10, {}}).status().code(),
            util::ErrorCode::not_found);
}

TEST_F(NetworkFixture, FileAddReservesSpaceAndEmitsTransfers) {
  build(test_params());
  auto id = net->file_add(client, {2048, 20, {}});  // cp = 4
  ASSERT_TRUE(id.is_ok());
  const auto requests = events_of<ReplicaTransferRequested>();
  ASSERT_EQ(requests.size(), 4u);
  ByteCount reserved = 0;
  for (SectorId s : sectors_) {
    reserved += net->sectors().at(s).capacity - net->sectors().at(s).free_cap;
  }
  EXPECT_EQ(reserved, 4u * 2048u);
  for (const auto& r : requests) {
    EXPECT_EQ(r.from, kNoSector);
    EXPECT_EQ(r.client, client);
    EXPECT_EQ(r.deadline, params.transfer_window(2048));
  }
}

TEST_F(NetworkFixture, FileAddFailsWhenNothingFits) {
  build(test_params(), 2, 1024);
  // 800-byte file, cp=2; both sectors can hold one replica each; a second
  // file cannot fit anywhere.
  ASSERT_TRUE(net->file_add(client, {800, 10, {}}).is_ok());
  const auto result = net->file_add(client, {800, 10, {}});
  EXPECT_EQ(result.status().code(), util::ErrorCode::insufficient_space);
  EXPECT_GT(net->stats().add_resamples, 0u);
  // Failed allocation must not leak reservations.
  ByteCount reserved = 0;
  for (SectorId s : sectors_) {
    reserved += net->sectors().at(s).capacity - net->sectors().at(s).free_cap;
  }
  EXPECT_EQ(reserved, 2u * 800u);
}

TEST_F(NetworkFixture, FileAddWithNoSectorsFails) {
  build(test_params(), 0);
  EXPECT_EQ(net->file_add(client, {100, 10, {}}).status().code(),
            util::ErrorCode::unavailable);
}

// ---------------------------------------------------------------------------
// Upload: confirm, CheckAlloc success and failure
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, SuccessfulUploadActivatesReplicas) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  EXPECT_EQ(events_of<FileStored>().size(), 1u);
  EXPECT_EQ(events_of<ReplicaActivated>().size(), 4u);
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    EXPECT_EQ(e.state, AllocState::normal);
    EXPECT_NE(e.prev, kNoSector);
    EXPECT_EQ(e.next, kNoSector);
    EXPECT_NE(e.last, kNoTime);
  }
  EXPECT_EQ(net->total_stored_value(), 20u);
  EXPECT_EQ(net->stats().files_stored, 1u);
}

TEST_F(NetworkFixture, ConfirmValidations) {
  build(test_params());
  auto id = net->file_add(client, {1000, 10, {}});
  ASSERT_TRUE(id.is_ok());
  const AllocEntry& e = net->allocations().entry(id.value(), 0);
  const ProviderId owner = net->sectors().at(e.next).owner;
  // Wrong provider.
  const ProviderId wrong =
      providers[0] == owner ? providers[1] : providers[0];
  if (net->sectors().at(e.next).owner != wrong) {
    EXPECT_EQ(net->file_confirm(wrong, id.value(), 0, e.next, {}, std::nullopt)
                  .code(),
              util::ErrorCode::permission_denied);
  }
  // Unknown file / bad index.
  EXPECT_EQ(
      net->file_confirm(owner, 999, 0, e.next, {}, std::nullopt).code(),
      util::ErrorCode::not_found);
  EXPECT_EQ(
      net->file_confirm(owner, id.value(), 9, e.next, {}, std::nullopt).code(),
      util::ErrorCode::invalid_argument);
  // Valid confirm, then double-confirm is rejected (state moved on).
  ASSERT_TRUE(
      net->file_confirm(owner, id.value(), 0, e.next, {}, std::nullopt).is_ok());
  EXPECT_EQ(
      net->file_confirm(owner, id.value(), 0, e.next, {}, std::nullopt).code(),
      util::ErrorCode::failed_precondition);
}

TEST_F(NetworkFixture, UnconfirmedUploadFailsAndRefunds) {
  build(test_params());
  const TokenAmount before = ledger.balance(client);
  auto id = net->file_add(client, {1000, 20, {}});  // cp=4
  ASSERT_TRUE(id.is_ok());
  // Only confirm replica 0; the rest never arrive.
  const AllocEntry& e0 = net->allocations().entry(id.value(), 0);
  const ProviderId owner = net->sectors().at(e0.next).owner;
  ASSERT_TRUE(
      net->file_confirm(owner, id.value(), 0, e0.next, {}, std::nullopt).is_ok());
  net->advance_to(params.transfer_window(1000));

  EXPECT_FALSE(net->file_exists(id.value()));
  EXPECT_EQ(net->stats().upload_failures, 1u);
  ASSERT_EQ(events_of<UploadFailed>().size(), 1u);
  // All reservations released.
  for (SectorId s : sectors_) {
    EXPECT_EQ(net->sectors().at(s).free_cap, net->sectors().at(s).capacity);
  }
  // Client got back the 3 unconfirmed traffic fees; the confirmed provider
  // keeps one; gas (request + prepaid CheckAlloc) is burnt.
  const TokenAmount traffic = params.traffic_fee(1000);
  EXPECT_EQ(ledger.balance(client),
            before - 2 * params.gas_per_task - traffic);
  EXPECT_EQ(ledger.balance(net->traffic_escrow_account()), 0u);
}

TEST_F(NetworkFixture, ConfirmedProviderEarnsTrafficFee) {
  build(test_params());
  auto id = net->file_add(client, {1000, 10, {}});
  ASSERT_TRUE(id.is_ok());
  const AllocEntry& e = net->allocations().entry(id.value(), 0);
  const ProviderId owner = net->sectors().at(e.next).owner;
  const TokenAmount before = ledger.balance(owner);
  ASSERT_TRUE(
      net->file_confirm(owner, id.value(), 0, e.next, {}, std::nullopt).is_ok());
  EXPECT_EQ(ledger.balance(owner), before + params.traffic_fee(1000));
}

// ---------------------------------------------------------------------------
// Proofs, punishment, corruption (Auto_CheckProof)
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, AutoProveKeepsFileHealthy) {
  build(test_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  net->advance_to(3000);
  EXPECT_TRUE(net->file_exists(id));
  EXPECT_EQ(net->stats().punishments, 0u);
  EXPECT_EQ(net->stats().sectors_corrupted, 0u);
}

TEST_F(NetworkFixture, ManualTrustedProofsKeepFileHealthy) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  for (int cycle = 0; cycle < 5; ++cycle) {
    const Time next_check = net->next_task_time();
    net->advance_to(next_check - 1);
    for (ReplicaIndex i = 0; i < 4; ++i) {
      const AllocEntry& e = net->allocations().entry(id, i);
      auto status = net->file_prove_trusted(net->sectors().at(e.prev).owner,
                                            id, i, e.prev, net->now());
      ASSERT_TRUE(status.is_ok()) << status.to_string();
    }
    net->advance_to(next_check);
  }
  EXPECT_TRUE(net->file_exists(id));
  EXPECT_EQ(net->stats().punishments, 0u);
}

TEST_F(NetworkFixture, LateProofPunished) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  // Nobody proves: the second CheckProof sees last + proof_due < now.
  const TokenAmount deposit_before = net->deposits().remaining(
      net->allocations().entry(id, 0).prev);
  net->advance_to(251);  // checks at 1+100=101 (fresh), 201 (late)
  EXPECT_GT(net->stats().punishments, 0u);
  EXPECT_LT(net->deposits().remaining(net->allocations().entry(id, 0).prev),
            deposit_before);
  EXPECT_FALSE(events_of<ProviderPunished>().empty());
  EXPECT_TRUE(net->file_exists(id));
}

TEST_F(NetworkFixture, ProofDeadlineCorruptsSector) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  // No proofs at all: at t=301+, last(=1) + 300 < now -> confiscation.
  net->advance_to(402);
  EXPECT_GT(net->stats().sectors_corrupted, 0u);
  EXPECT_FALSE(events_of<SectorCorrupted>().empty());
  const auto corrupted = events_of<SectorCorrupted>();
  for (const auto& ev : corrupted) {
    EXPECT_EQ(net->deposits().remaining(ev.sector), 0u);
    EXPECT_GT(ev.confiscated, 0u);
  }
  (void)id;
}

TEST_F(NetworkFixture, ReplayedProofRejected) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  net->advance_to(50);
  const AllocEntry& e = net->allocations().entry(id, 0);
  const ProviderId owner = net->sectors().at(e.prev).owner;
  ASSERT_TRUE(net->file_prove_trusted(owner, id, 0, e.prev, 50).is_ok());
  EXPECT_EQ(net->file_prove_trusted(owner, id, 0, e.prev, 50).code(),
            util::ErrorCode::proof_invalid);
  EXPECT_EQ(net->file_prove_trusted(owner, id, 0, e.prev, 40).code(),
            util::ErrorCode::proof_invalid);
  EXPECT_EQ(net->file_prove_trusted(owner, id, 0, e.prev, 99).code(),
            util::ErrorCode::proof_invalid);  // future-dated
}

// ---------------------------------------------------------------------------
// File loss and compensation
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, LosingAllReplicasCompensatesClient) {
  build(test_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  const TokenAmount before = ledger.balance(client);
  // Corrupt every sector holding a replica.
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    if (net->sectors().at(e.prev).state != SectorState::corrupted) {
      net->corrupt_sector_now(e.prev);
    }
  }
  const Time next_check = net->next_task_time();
  net->advance_to(next_check);
  EXPECT_FALSE(net->file_exists(id));
  const auto lost = events_of<FileLost>();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].value, 20u);
  EXPECT_EQ(lost[0].compensated_now, 20u);  // pool is well funded
  // Fig. 8 deducts the cycle's rent + gas before discovering the loss.
  const TokenAmount cycle_cost =
      params.rent_per_cycle(1000, 4) + 2 * params.gas_per_task;
  EXPECT_EQ(ledger.balance(client), before + 20u - cycle_cost);
  EXPECT_EQ(net->stats().files_lost, 1u);
  EXPECT_EQ(net->stats().value_lost, 20u);
}

TEST_F(NetworkFixture, SharedSectorBreachLosesFileInSameCheck) {
  // Four replicas over two sectors (distinct_sectors is off), and nobody
  // proves. The check that first sees ProofDeadline breached confiscates
  // every holder; confiscating one sector corrupts the file's later
  // replicas mid-loop, so the loss is decided after the replica loop, in
  // that same check, not one proof cycle later.
  build(test_params(), 2, 8 * 1024);
  const FileId id = add_and_store(1000, 20);
  std::set<SectorId> holders;
  for (ReplicaIndex i = 0; i < 4; ++i) {
    holders.insert(net->allocations().entry(id, i).prev);
  }
  ASSERT_LT(holders.size(), 4u);
  const Time stored_at = net->allocations().entry(id, 0).last;

  // Checks at +100 (fresh), +200 and +300 (late, not yet breached).
  net->advance_to(stored_at + 3 * params.proof_cycle);
  ASSERT_TRUE(net->file_exists(id));
  ASSERT_TRUE(events_of<SectorCorrupted>().empty());

  // The check at +400: last + proof_deadline < now for every replica.
  net->advance_to(stored_at + 4 * params.proof_cycle);
  const auto corrupted = events_of<SectorCorrupted>();
  ASSERT_EQ(corrupted.size(), holders.size());
  for (const SectorCorrupted& ev : corrupted) {
    EXPECT_EQ(holders.count(ev.sector), 1u);
  }
  EXPECT_FALSE(net->file_exists(id));
  const auto lost = events_of<FileLost>();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].file, id);
  EXPECT_EQ(lost[0].value, 20u);
  EXPECT_EQ(lost[0].compensated_now, 20u);
  EXPECT_EQ(net->stats().value_compensated, net->stats().value_lost);
}

TEST_F(NetworkFixture, PartialCorruptionKeepsFileAlive) {
  build(test_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  net->corrupt_sector_now(net->allocations().entry(id, 0).prev);
  net->advance_to(net->now() + 5 * params.proof_cycle);
  EXPECT_TRUE(net->file_exists(id));
  EXPECT_EQ(net->stats().files_lost, 0u);
}

TEST_F(NetworkFixture, CompensationShortfallBecomesLiability) {
  Params p = test_params();
  p.gamma_deposit = 0.001;  // deliberately under-collateralized
  build(p, 4, 4 * 1024);
  net->set_auto_prove(true);
  const FileId id = add_and_store(500, 100);  // cp = 20, value 100
  const TokenAmount client_before = ledger.balance(client);
  // Destroy the whole fleet: every replica is gone, but the confiscated
  // deposits cannot cover the value.
  for (SectorId s : sectors_) net->corrupt_sector_now(s);
  net->advance_to(net->now() + params.proof_cycle + 1);
  EXPECT_FALSE(net->file_exists(id));
  const auto lost = events_of<FileLost>();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_LT(lost[0].compensated_now, lost[0].value);
  EXPECT_GT(net->deposits().outstanding_liabilities(), 0u);
  // A later confiscation settles the liability FIFO.
  const AccountId fresh_provider = ledger.create_account(1'000'000);
  // Big enough that its confiscated deposit covers the whole shortfall.
  auto fresh = net->sector_register(fresh_provider, 1024 * 1024);
  ASSERT_TRUE(fresh.is_ok());
  net->corrupt_sector_now(fresh.value());
  EXPECT_EQ(net->deposits().outstanding_liabilities(), 0u);
  // Full value arrives net of the cycle's rent+gas deducted at CheckProof.
  const TokenAmount cycle_cost =
      params.rent_per_cycle(500, 20) + 2 * params.gas_per_task;
  EXPECT_EQ(ledger.balance(client), client_before + 100u - cycle_cost);
}

// ---------------------------------------------------------------------------
// Discard and rent
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, DiscardRemovesAtNextCheckProof) {
  build(test_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  ASSERT_TRUE(net->file_discard(client, id).is_ok());
  EXPECT_TRUE(net->file_exists(id));  // still there until the check
  net->advance_to(net->now() + params.proof_cycle + 1);
  EXPECT_FALSE(net->file_exists(id));
  const auto discarded = events_of<FileDiscarded>();
  ASSERT_EQ(discarded.size(), 1u);
  EXPECT_FALSE(discarded[0].for_unpaid_rent);
  // Space is reclaimed.
  for (SectorId s : sectors_) {
    EXPECT_EQ(net->sectors().at(s).free_cap, net->sectors().at(s).capacity);
  }
  EXPECT_EQ(net->stats().files_discarded, 1u);
}

TEST_F(NetworkFixture, DiscardRequiresOwnership) {
  build(test_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  EXPECT_EQ(net->file_discard(providers[0], id).code(),
            util::ErrorCode::permission_denied);
}

TEST_F(NetworkFixture, RentChargedEachCycleAndDistributed) {
  build(test_params());
  net->set_auto_prove(true);
  const TokenAmount client_before = ledger.balance(client);
  const FileId id = add_and_store(1000, 20);
  const TokenAmount after_add = ledger.balance(client);
  const TokenAmount upload_cost = client_before - after_add;
  // traffic fees flowed to providers; remaining cost is gas.
  EXPECT_GT(upload_cost, 0u);

  const TokenAmount rent = params.rent_per_cycle(1000, 4);
  net->advance_to(net->now() + params.proof_cycle + 1);  // one CheckProof
  EXPECT_EQ(ledger.balance(client),
            after_add - rent - 2 * params.gas_per_task);

  // After a full rent period the pool pays out to providers by capacity.
  net->advance_to(params.rent_period_cycles * params.proof_cycle + 1);
  EXPECT_FALSE(events_of<RentDistributed>().empty());
  EXPECT_TRUE(net->file_exists(id));
}

TEST_F(NetworkFixture, UnpaidRentDiscardsFile) {
  build(test_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  // Drain the client to a balance below one cycle's rent+gas.
  const TokenAmount balance = ledger.balance(client);
  ASSERT_TRUE(ledger.transfer(client, providers[0], balance - 1).is_ok());
  net->advance_to(net->now() + params.proof_cycle + 1);
  EXPECT_FALSE(net->file_exists(id));
  const auto discarded = events_of<FileDiscarded>();
  ASSERT_EQ(discarded.size(), 1u);
  EXPECT_TRUE(discarded[0].for_unpaid_rent);
}

// ---------------------------------------------------------------------------
// Refresh (Auto_Refresh / Auto_CheckRefresh)
// ---------------------------------------------------------------------------

class RefreshFixture : public NetworkFixture {
 protected:
  static Params refresh_params() {
    Params p = test_params();
    p.avg_refresh = 1.0;  // refresh roughly every cycle
    return p;
  }

  /// Confirms any in-flight refresh transfers (plays the honest successor).
  void confirm_refreshes(FileId id) {
    for (ReplicaIndex i = 0; i < net->allocations().replica_count(id); ++i) {
      const AllocEntry& e = net->allocations().entry(id, i);
      if (e.state == AllocState::alloc && e.next != kNoSector &&
          e.prev != kNoSector) {
        const ProviderId owner = net->sectors().at(e.next).owner;
        ASSERT_TRUE(
            net->file_confirm(owner, id, i, e.next, {}, std::nullopt).is_ok());
      }
    }
  }
};

TEST_F(RefreshFixture, RefreshMovesReplicaWhenConfirmed) {
  build(refresh_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  // Drive cycles, confirming every requested handoff, until a refresh
  // completes.
  for (int step = 0; step < 200 && net->stats().refreshes_completed == 0;
       ++step) {
    const Time next = net->next_task_time();
    net->advance_to(next);
    confirm_refreshes(id);
  }
  EXPECT_GT(net->stats().refreshes_started, 0u);
  EXPECT_GT(net->stats().refreshes_completed, 0u);
  EXPECT_TRUE(net->file_exists(id));
  // Space accounting stays exact: total used == live replicas * size.
  ByteCount used = 0;
  for (SectorId s : sectors_) {
    const Sector& sec = net->sectors().at(s);
    if (sec.state == SectorState::normal) used += sec.capacity - sec.free_cap;
  }
  ByteCount expected = 0;
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    if (e.prev != kNoSector && e.state != AllocState::corrupted) {
      expected += 1000;
    }
    if (e.next != kNoSector) expected += 1000;
  }
  EXPECT_EQ(used, expected);
}

TEST_F(RefreshFixture, FailedHandoffPunishesAndRetries) {
  build(refresh_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  // Never confirm refresh transfers: each CheckRefresh punishes the
  // successor and all holders, then retries.
  for (int step = 0; step < 60 && net->stats().refreshes_failed == 0; ++step) {
    net->advance_to(net->next_task_time());
  }
  EXPECT_GT(net->stats().refreshes_failed, 0u);
  EXPECT_GT(net->stats().punishments, 0u);
  const auto punished = events_of<ProviderPunished>();
  EXPECT_FALSE(punished.empty());
  EXPECT_TRUE(net->file_exists(id));  // the replica never left its holder
}

TEST_F(RefreshFixture, RefreshSkipsWhenTargetFull) {
  Params p = refresh_params();
  build(p, 2, 1024);  // two tight sectors
  net->set_auto_prove(true);
  const FileId id = add_and_store(800, 10);  // cp=2 fills both sectors
  for (int step = 0; step < 100 && net->stats().refresh_collisions == 0;
       ++step) {
    net->advance_to(net->next_task_time());
  }
  EXPECT_GT(net->stats().refresh_collisions, 0u);
  EXPECT_FALSE(events_of<RefreshSkipped>().empty());
  EXPECT_TRUE(net->file_exists(id));
}

// ---------------------------------------------------------------------------
// Sector disable drains via refresh
// ---------------------------------------------------------------------------

TEST_F(RefreshFixture, DisabledSectorDrainsAndExits) {
  build(refresh_params(), 6, 4 * 1024);
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  // Disable the sector holding replica 0.
  const SectorId victim = net->allocations().entry(id, 0).prev;
  const ProviderId owner = net->sectors().at(victim).owner;
  ASSERT_TRUE(net->sector_disable(owner, victim).is_ok());
  EXPECT_EQ(net->sectors().at(victim).state, SectorState::disabled);
  // Keep confirming handoffs; refreshes eventually move everything out and
  // the sector exits with a refund.
  for (int step = 0; step < 3000; ++step) {
    if (net->sectors().at(victim).state == SectorState::removed) break;
    net->advance_to(net->next_task_time());
    confirm_refreshes(id);
  }
  EXPECT_EQ(net->sectors().at(victim).state, SectorState::removed);
  EXPECT_FALSE(events_of<SectorRemoved>().empty());
}

// ---------------------------------------------------------------------------
// File_Get
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, FileGetListsLiveHolders) {
  build(test_params());
  net->set_auto_prove(true);
  const FileId id = add_and_store(1000, 20);
  auto holders = net->file_get(client, id);
  ASSERT_TRUE(holders.is_ok());
  EXPECT_EQ(holders.value().size(), 4u);
  // Corrupt one holder: every replica it hosted drops out of the list
  // (i.i.d. placement can put several replicas in one sector).
  const SectorId victim = holders.value()[0];
  const auto hosted = static_cast<std::size_t>(
      std::count(holders.value().begin(), holders.value().end(), victim));
  net->corrupt_sector_now(victim);
  auto holders2 = net->file_get(client, id);
  ASSERT_TRUE(holders2.is_ok());
  EXPECT_EQ(holders2.value().size(), 4u - hosted);
  EXPECT_EQ(events_of<RetrievalRequested>().size(), 2u);
}

// ---------------------------------------------------------------------------
// distinct_sectors ablation flag
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, DistinctSectorsPlacesReplicasApart) {
  Params p = test_params();
  p.distinct_sectors = true;
  build(p, 4, 16 * 1024);
  net->set_auto_prove(true);
  // Many 4-replica files over only 4 sectors: without the flag, duplicate
  // placements are near-certain; with it, each file must use all 4 sectors.
  for (int n = 0; n < 10; ++n) {
    const FileId id = add_and_store(500, 20);
    std::set<SectorId> used;
    for (ReplicaIndex i = 0; i < 4; ++i) {
      used.insert(net->allocations().entry(id, i).prev);
    }
    EXPECT_EQ(used.size(), 4u) << "file " << id;
  }
  EXPECT_GT(net->stats().add_resamples, 0u);
}

TEST_F(NetworkFixture, DistinctSectorsFailsWhenNotEnoughSectors) {
  Params p = test_params();
  p.distinct_sectors = true;
  build(p, 3, 16 * 1024);  // cp=4 > 3 sectors: can never place distinctly
  const auto result = net->file_add(client, {500, 20, {}});
  EXPECT_EQ(result.status().code(), util::ErrorCode::insufficient_space);
}

// ---------------------------------------------------------------------------
// §VI-B admission rebalancing
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, AdmissionRebalanceSwapsBackupsIn) {
  Params p = test_params();
  p.admission_rebalance = true;
  build(p, 4, 16 * 1024);
  net->set_auto_prove(true);
  // Store enough backups that the Poisson mean for a new equal-size sector
  // (~ entries/5) is comfortably positive.
  std::vector<FileId> files;
  for (int i = 0; i < 10; ++i) files.push_back(add_and_store(500, 20));
  const std::uint64_t refreshes_before = net->stats().refreshes_started;
  const AccountId newcomer = ledger.create_account(1'000'000);
  auto fresh = net->sector_register(newcomer, 16 * 1024);
  ASSERT_TRUE(fresh.is_ok());
  // §VI-B: registering triggered targeted refreshes into the new sector.
  EXPECT_GT(net->stats().refreshes_started, refreshes_before);
  bool any_inbound = false;
  for (FileId f : files) {
    for (ReplicaIndex i = 0; i < net->allocations().replica_count(f); ++i) {
      if (net->allocations().entry(f, i).next == fresh.value()) {
        any_inbound = true;
      }
    }
  }
  EXPECT_TRUE(any_inbound);
}

// ---------------------------------------------------------------------------
// Money conservation
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, TokensConservedThroughBusyScenario) {
  build(test_params(), 6, 4 * 1024);
  net->set_auto_prove(true);
  const TokenAmount initial = system_total();
  std::vector<FileId> files;
  for (int i = 0; i < 5; ++i) files.push_back(add_and_store(700, 20));
  net->advance_to(500);
  net->corrupt_sector_now(sectors_[0]);
  net->corrupt_sector_now(sectors_[1]);
  ASSERT_TRUE(net->file_discard(client, files[0]).is_ok());
  net->advance_to(2500);
  EXPECT_EQ(system_total(), initial);
  EXPECT_EQ(ledger.total_supply(), initial);
}

// ---------------------------------------------------------------------------
// Full-crypto path: real PoRep seals and WindowPoSt proofs
// ---------------------------------------------------------------------------

/// `verify_proofs = true`: the tests play the client and provider agents by
/// hand. Every requested transfer is sealed under its slot's replica id and
/// confirmed with the seal proof (an upload seals the client's copy, a
/// refresh handoff seals the bytes unsealed from the current holder); each
/// cycle the holders answer the epoch beacon's WindowPoSt challenges from
/// their sealed bytes. Sectors in `dark_` have crashed: they neither prove
/// nor accept transfers. Sectors in `lazy_` prove but accept no transfers.
class AgentsFixture : public NetworkFixture {
 protected:
  static Params sealed_params() {
    Params p = test_params();
    p.verify_proofs = true;
    p.seal = {.work = 1, .challenges = 2};
    p.post_challenges = 2;
    p.avg_refresh = 1e9;  // no refresh unless a test asks for it
    return p;
  }

  static std::vector<std::uint8_t> random_bytes(std::size_t n,
                                                std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng());
    return out;
  }

  /// File_Add with the data's Merkle root as `f.merkleRoot`; the client
  /// keeps its copy for the uploads.
  FileId add(const std::vector<std::uint8_t>& data, TokenAmount value) {
    auto id = net->file_add(
        client, {data.size(), value, crypto::merkle_root_of_data(data)});
    EXPECT_TRUE(id.is_ok()) << id.status().to_string();
    originals_[id.value()] = data;
    return id.value();
  }

  [[nodiscard]] crypto::ReplicaId replica_id(FileId file, ReplicaIndex index,
                                             SectorId sector) const {
    return {net->sectors().at(sector).owner, sector,
            replica_nonce(file, index)};
  }

  /// Serves every transfer requested since the last call: seal, prove the
  /// seal, File_Confirm. Targets in `dark_` or `lazy_` stay silent.
  void serve() {
    while (served_ < events.size()) {
      const Event event = events[served_++];
      const auto* req = std::get_if<ReplicaTransferRequested>(&event);
      if (req == nullptr || dark_.count(req->to) || lazy_.count(req->to)) {
        continue;
      }
      const auto raw =
          req->from == kNoSector
              ? originals_.at(req->file)
              : crypto::unseal(sealed_.at({req->file, req->index, req->from}),
                               replica_id(req->file, req->index, req->from),
                               params.seal);
      const crypto::ReplicaId rid = replica_id(req->file, req->index, req->to);
      auto sealed = crypto::seal(raw, rid, params.seal);
      const auto proof = crypto::prove_seal(raw, sealed, rid, params.seal);
      const auto status =
          net->file_confirm(rid.provider, req->file, req->index, req->to,
                            crypto::replica_commitment(sealed), proof);
      ASSERT_TRUE(status.is_ok()) << status.to_string();
      sealed_[{req->file, req->index, req->to}] = std::move(sealed);
    }
  }

  /// Stores `data` end to end: File_Add, seal + confirm, Auto_CheckAlloc.
  FileId store(const std::vector<std::uint8_t>& data, TokenAmount value) {
    const FileId id = add(data, value);
    serve();
    net->advance_to(net->now() + params.transfer_window(data.size()));
    EXPECT_TRUE(net->file_exists(id));
    return id;
  }

  [[nodiscard]] crypto::WindowProof window_proof(FileId file,
                                                 ReplicaIndex index) const {
    const AllocEntry& e = net->allocations().entry(file, index);
    const Time epoch = net->now();
    return crypto::prove_window(sealed_.at({file, index, e.prev}),
                                replica_id(file, index, e.prev),
                                net->beacon(epoch), epoch,
                                params.post_challenges);
  }

  /// WindowPoSt for every live replica a running holder keeps, unless it
  /// was already proven at the current epoch. Once a refresh successor has
  /// confirmed, the chain expects the successor's commitment and the
  /// outgoing copy is no longer proven.
  void prove_all() {
    for (const auto& [key, sealed] : sealed_) {
      const auto& [file, index, sector] = key;
      if (!net->file_exists(file) || dark_.count(sector)) continue;
      const AllocEntry& e = net->allocations().entry(file, index);
      if (e.prev != sector || e.state == AllocState::corrupted) continue;
      if (e.last != kNoTime && e.last >= net->now()) continue;
      if (e.comm_r != crypto::replica_commitment(sealed)) continue;
      const auto status = net->file_prove(replica_id(file, index, sector)
                                              .provider,
                                          file, index, sector,
                                          window_proof(file, index));
      ASSERT_TRUE(status.is_ok()) << status.to_string();
    }
  }

  /// Runs the next `batches` task batches, proving one tick before each
  /// and serving the transfers each one requests.
  void prove_through(int batches) {
    for (int b = 0; b < batches; ++b) {
      const Time next = net->next_task_time();
      if (next > net->now()) {
        net->advance_to(next - 1);
        prove_all();
      }
      net->advance_to(next);
      serve();
    }
  }

  /// File_Get, then unseal listed holders' replicas until one matches the
  /// file's Merkle root. Empty when no running holder can serve it.
  std::vector<std::uint8_t> retrieve(FileId file) {
    const auto holders = net->file_get(client, file);
    if (!holders.is_ok()) return {};
    const crypto::Hash256 root = net->file(file).merkle_root;
    for (const SectorId sector : holders.value()) {
      if (dark_.count(sector)) continue;
      for (ReplicaIndex i = 0; i < net->allocations().replica_count(file);
           ++i) {
        const auto it = sealed_.find({file, i, sector});
        if (it == sealed_.end()) continue;
        auto raw = crypto::unseal(it->second, replica_id(file, i, sector),
                                  params.seal);
        if (crypto::merkle_root_of_data(raw) == root) return raw;
      }
    }
    return {};
  }

  std::map<FileId, std::vector<std::uint8_t>> originals_;
  std::map<std::tuple<FileId, ReplicaIndex, SectorId>,
           std::vector<std::uint8_t>>
      sealed_;
  std::set<SectorId> dark_;
  std::set<SectorId> lazy_;
  std::size_t served_ = 0;
};

TEST_F(AgentsFixture, StoreFileEndToEnd) {
  build(sealed_params());
  const TokenAmount initial = system_total();
  const auto data = random_bytes(1500, 1);
  const FileId id = store(data, 20);  // cp = 4

  ASSERT_EQ(events_of<FileStored>().size(), 1u);
  EXPECT_TRUE(events_of<UploadFailed>().empty());
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    EXPECT_EQ(e.state, AllocState::normal);
    EXPECT_EQ(e.comm_r,
              crypto::replica_commitment(sealed_.at({id, i, e.prev})));
  }
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, WindowPoStKeepsFileAliveThroughManyCycles) {
  build(sealed_params());
  const TokenAmount initial = system_total();
  const FileId id = store(random_bytes(1500, 2), 20);
  prove_through(20);
  EXPECT_TRUE(net->file_exists(id));
  EXPECT_EQ(net->stats().punishments, 0u);
  EXPECT_EQ(net->stats().sectors_corrupted, 0u);
  EXPECT_TRUE(events_of<ProviderPunished>().empty());
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, RetrievalReturnsOriginalBytes) {
  build(sealed_params());
  const auto data = random_bytes(1200, 3);
  const FileId id = store(data, 20);
  prove_through(3);
  EXPECT_EQ(retrieve(id), data);
  // Every listed holder's replica unseals to the client's bytes.
  const auto holders = net->file_get(client, id);
  ASSERT_TRUE(holders.is_ok());
  EXPECT_FALSE(holders.value().empty());
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const SectorId s = net->allocations().entry(id, i).prev;
    EXPECT_EQ(crypto::unseal(sealed_.at({id, i, s}), replica_id(id, i, s),
                             params.seal),
              data);
  }
}

TEST_F(AgentsFixture, LazyProviderCausesUploadFailure) {
  build(sealed_params());
  const TokenAmount initial = system_total();
  const auto data = random_bytes(800, 4);
  const FileId id = add(data, 10);  // cp = 2
  // Slot 1's target never confirms; the other transfers are served.
  lazy_.insert(net->allocations().entry(id, 1).next);
  serve();
  net->advance_to(net->now() + params.transfer_window(data.size()));

  EXPECT_FALSE(net->file_exists(id));
  EXPECT_EQ(net->stats().upload_failures, 1u);
  EXPECT_EQ(events_of<UploadFailed>().size(), 1u);
  EXPECT_TRUE(events_of<FileStored>().empty());
  for (SectorId s : sectors_) {
    EXPECT_EQ(net->sectors().at(s).free_cap, net->sectors().at(s).capacity);
  }
  EXPECT_EQ(ledger.balance(net->traffic_escrow_account()), 0u);
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, ForgedConfirmRejected) {
  build(sealed_params());
  const TokenAmount initial = system_total();
  const auto data = random_bytes(600, 10);
  const FileId id = add(data, 10);
  const AllocEntry& e = net->allocations().entry(id, 0);
  const crypto::ReplicaId rid = replica_id(id, 0, e.next);

  // A commitment the seal proof does not bind, and no proof at all.
  const auto sealed = crypto::seal(data, rid, params.seal);
  const auto proof = crypto::prove_seal(data, sealed, rid, params.seal);
  crypto::Hash256 bogus;
  bogus.bytes[0] = 1;
  EXPECT_EQ(net->file_confirm(rid.provider, id, 0, e.next, bogus, proof)
                .code(),
            util::ErrorCode::proof_invalid);
  EXPECT_EQ(net->file_confirm(rid.provider, id, 0, e.next, bogus,
                              std::nullopt)
                .code(),
            util::ErrorCode::proof_invalid);

  // A genuine seal of the wrong bytes: comm_d is not the file's root.
  const auto wrong = random_bytes(600, 11);
  const auto wrong_sealed = crypto::seal(wrong, rid, params.seal);
  const auto wrong_proof =
      crypto::prove_seal(wrong, wrong_sealed, rid, params.seal);
  EXPECT_EQ(net->file_confirm(rid.provider, id, 0, e.next,
                              crypto::replica_commitment(wrong_sealed),
                              wrong_proof)
                .code(),
            util::ErrorCode::proof_invalid);

  // Rejections leave the slot awaiting; the honest seal still lands.
  EXPECT_EQ(net->allocations().entry(id, 0).state, AllocState::alloc);
  EXPECT_TRUE(net->file_confirm(rid.provider, id, 0, e.next,
                                crypto::replica_commitment(sealed), proof)
                  .is_ok());
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, SybilReplicaReuseRejected) {
  // Every slot demands its own seal: the replica id embeds the slot, so one
  // sealed copy cannot stand in for two replicas.
  build(sealed_params());
  const TokenAmount initial = system_total();
  const auto data = random_bytes(600, 12);
  const FileId id = add(data, 10);  // cp = 2
  const AllocEntry& e0 = net->allocations().entry(id, 0);
  const AllocEntry& e1 = net->allocations().entry(id, 1);
  const crypto::ReplicaId rid0 = replica_id(id, 0, e0.next);
  const crypto::ReplicaId rid1 = replica_id(id, 1, e1.next);

  // Slot 0's seal, submitted for slot 1 by slot 1's holder.
  const auto sealed0 = crypto::seal(data, rid0, params.seal);
  const auto proof0 = crypto::prove_seal(data, sealed0, rid0, params.seal);
  EXPECT_EQ(net->file_confirm(rid1.provider, id, 1, e1.next,
                              crypto::replica_commitment(sealed0), proof0)
                .code(),
            util::ErrorCode::proof_invalid);

  // The same holder sealing in its own sector under slot 0's nonce.
  const crypto::ReplicaId slot0_in_sector1{rid1.provider, e1.next,
                                           replica_nonce(id, 0)};
  const auto reused = crypto::seal(data, slot0_in_sector1, params.seal);
  const auto reused_proof =
      crypto::prove_seal(data, reused, slot0_in_sector1, params.seal);
  EXPECT_EQ(net->file_confirm(rid1.provider, id, 1, e1.next,
                              crypto::replica_commitment(reused),
                              reused_proof)
                .code(),
            util::ErrorCode::proof_invalid);
  EXPECT_EQ(net->allocations().entry(id, 1).state, AllocState::alloc);
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, ForgedWindowProofRejected) {
  build(sealed_params());
  const TokenAmount initial = system_total();
  const auto data = random_bytes(600, 13);
  const FileId id = store(data, 10);
  net->advance_to(net->now() + 20);

  // A prover who kept random bytes instead of the replica cannot answer
  // the beacon's challenges, even while claiming the registered comm_r.
  const AllocEntry& e = net->allocations().entry(id, 0);
  const crypto::ReplicaId rid = replica_id(id, 0, e.prev);
  const auto junk = random_bytes(sealed_.at({id, 0, e.prev}).size(), 14);
  auto forged = crypto::prove_window(junk, rid, net->beacon(net->now()),
                                     net->now(), params.post_challenges);
  forged.comm_r = e.comm_r;
  EXPECT_EQ(net->file_prove(rid.provider, id, 0, e.prev, forged).code(),
            util::ErrorCode::proof_invalid);

  // The rejected proof stamped nothing: the genuine one at the same epoch
  // is still fresh.
  EXPECT_TRUE(
      net->file_prove(rid.provider, id, 0, e.prev, window_proof(id, 0))
          .is_ok());
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, CrashedProvidersDetectedAndConfiscated) {
  build(sealed_params());
  const TokenAmount initial = system_total();
  const auto data = random_bytes(1000, 6);
  const FileId id = store(data, 10);  // cp = 2
  prove_through(3);
  const Time last_proof = net->now() - 1;

  // Holders go dark. Past ProofDue every check punishes; the file lives.
  net->advance_to(last_proof + params.proof_deadline - 1);
  EXPECT_GT(net->stats().punishments, 0u);
  EXPECT_FALSE(events_of<ProviderPunished>().empty());
  EXPECT_EQ(net->stats().sectors_corrupted, 0u);
  EXPECT_TRUE(net->file_exists(id));

  // Past ProofDeadline the sectors are confiscated, the file is lost and
  // the pool compensates its full value.
  net->advance_to(last_proof + params.proof_deadline + params.proof_cycle);
  EXPECT_FALSE(net->file_exists(id));
  EXPECT_GT(net->stats().sectors_corrupted, 0u);
  const auto lost = events_of<FileLost>();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].value, 10u);
  EXPECT_EQ(lost[0].compensated_now, 10u);
  EXPECT_EQ(net->stats().value_lost, net->stats().value_compensated);
  EXPECT_EQ(net->deposits().total_compensated(), 10u);
  EXPECT_EQ(system_total(), initial);
  EXPECT_EQ(ledger.total_supply(), initial);
}

TEST_F(AgentsFixture, SingleCrashDoesNotLoseFile) {
  build(sealed_params());
  const TokenAmount initial = system_total();
  const auto data = random_bytes(1500, 7);
  const FileId id = store(data, 20);  // cp = 4, at most 2 per sector
  prove_through(2);

  // One holder crashes for good; the others keep proving past its
  // ProofDeadline.
  const SectorId crashed = net->allocations().entry(id, 0).prev;
  dark_.insert(crashed);
  const Time crash_time = net->now();
  while (net->now() < crash_time + params.proof_deadline +
                          2 * params.proof_cycle) {
    prove_through(1);
  }

  EXPECT_EQ(net->sectors().at(crashed).state, SectorState::corrupted);
  EXPECT_GT(net->stats().punishments, 0u);
  EXPECT_TRUE(net->file_exists(id));
  EXPECT_TRUE(events_of<FileLost>().empty());
  EXPECT_EQ(retrieve(id), data);
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, RefreshMovesSealedReplicas) {
  Params p = sealed_params();
  p.avg_refresh = 1.0;  // refresh nearly every cycle
  build(p);
  const TokenAmount initial = system_total();
  const auto data = random_bytes(1000, 8);
  const FileId id = store(data, 20);
  for (int b = 0; b < 200 && net->stats().refreshes_completed < 3; ++b) {
    prove_through(1);
  }

  const auto& stats = net->stats();
  EXPECT_GT(stats.refreshes_started, 0u);
  EXPECT_GE(stats.refreshes_completed, 3u);
  EXPECT_EQ(stats.refreshes_failed, 0u) << "honest handoffs must not fail";
  EXPECT_EQ(stats.punishments, 0u);
  EXPECT_TRUE(net->file_exists(id));
  // Each live replica carries the commitment of its new holder's re-seal.
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    EXPECT_EQ(e.comm_r,
              crypto::replica_commitment(sealed_.at({id, i, e.prev})));
  }
  EXPECT_EQ(retrieve(id), data);
  EXPECT_EQ(system_total(), initial);
}

TEST_F(AgentsFixture, MoneyConservedEndToEnd) {
  Params p = sealed_params();
  p.avg_refresh = 2.0;
  build(p);
  const TokenAmount initial = system_total();
  const FileId kept = store(random_bytes(700, 20), 20);
  const FileId dropped = store(random_bytes(900, 21), 10);
  prove_through(3);
  // One holder crashes, the client discards a file, and the run goes on
  // past a rent payout and the crashed sector's ProofDeadline.
  dark_.insert(net->allocations().entry(kept, 0).prev);
  ASSERT_TRUE(net->file_discard(client, dropped).is_ok());
  while (net->now() <= params.rent_period_cycles * params.proof_cycle +
                           params.proof_deadline) {
    prove_through(1);
  }
  EXPECT_TRUE(net->file_exists(kept));
  EXPECT_FALSE(net->file_exists(dropped));
  EXPECT_GT(net->stats().sectors_corrupted, 0u);
  EXPECT_FALSE(events_of<RentDistributed>().empty());
  EXPECT_EQ(system_total(), initial);
  EXPECT_EQ(ledger.total_supply(), initial);
}

TEST_F(AgentsFixture, DeterministicUnderFixedSeed) {
  Params p = sealed_params();
  p.avg_refresh = 2.0;  // refresh draws exercise the engine's PRNG
  // Store, prove and refresh on a fresh ledger and engine; fingerprint the
  // engine's canonical state.
  auto run = [&](std::uint64_t seed) {
    net.reset();
    ledger = ledger::Ledger{};
    providers.clear();
    sectors_.clear();
    events.clear();
    originals_.clear();
    sealed_.clear();
    served_ = 0;
    build(p, 4, 4 * 1024, seed);
    (void)store(random_bytes(1000, 30), 20);
    (void)store(random_bytes(500, 31), 10);
    prove_through(12);
    util::BinaryWriter writer(false);
    net->save(writer);
    return std::make_tuple(writer.digest(), net->stats().refreshes_completed,
                           events.size());
  };
  const auto first = run(1234);
  EXPECT_EQ(first, run(1234));
  EXPECT_NE(std::get<1>(first), 0u);
}

}  // namespace
}  // namespace fi::core
