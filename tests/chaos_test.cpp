#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/network.h"
#include "ledger/account.h"
#include "util/prng.h"

/// Chaos suite: long runs of `core::Network` with random failures —
/// permanent crashes, transient outages, providers refusing refresh
/// handoffs, discards — asserting global invariants at the end. The test plays the
/// off-chain side: running holders confirm every transfer sent to them,
/// and auto-prove stands in for WindowPoSt, so a physically corrupted
/// sector goes through the engine's real punish/confiscate pipeline.
/// (The DRep layout invariant is covered by `DRepProperty`.)
namespace fi::core {
namespace {

Params chaos_params() {
  Params p;
  p.min_capacity = 8 * 1024;
  p.min_value = 10;
  p.k = 3;
  p.cap_para = 20.0;
  p.gamma_deposit = 0.3;
  p.proof_cycle = 50;
  p.proof_due = 75;
  p.proof_deadline = 150;
  p.avg_refresh = 4.0;
  p.delay_per_kib = 5;
  p.min_transfer_window = 5;
  p.verify_proofs = false;
  p.cr_size = 2048;
  return p;
}

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, SystemSurvivesRandomFailures) {
  const std::uint64_t seed = GetParam();
  const Params params = chaos_params();
  ledger::Ledger ledger;
  Network net(params, ledger, seed);
  net.set_auto_prove(true);
  util::Xoshiro256 rng(seed * 7919 + 3);

  std::vector<Event> log;
  net.subscribe([&log](const Event& e) { log.push_back(e); });

  const ClientId client = ledger.create_account(10'000'000);
  std::vector<AccountId> providers;
  std::vector<SectorId> sectors;
  for (int i = 0; i < 8; ++i) {
    providers.push_back(ledger.create_account(100'000'000));
    auto s = net.sector_register(providers.back(), 4 * 8 * 1024);
    ASSERT_TRUE(s.is_ok());
    sectors.push_back(s.value());
  }

  auto total_tokens = [&] {
    TokenAmount t = ledger.balance(client);
    for (AccountId p : providers) t += ledger.balance(p);
    t += ledger.balance(net.escrow_account());
    t += ledger.balance(net.pool_account());
    t += ledger.balance(net.rent_pool_account());
    t += ledger.balance(net.gas_sink_account());
    t += ledger.balance(net.traffic_escrow_account());
    return t;
  };
  const TokenAmount initial = total_tokens();

  std::set<SectorId> crashed;    // dark for good
  std::set<SectorId> refusing;   // up and proving, but take no handoffs
  std::vector<std::pair<Time, SectorId>> outages;  // (back online at, sector)

  // The off-chain side between task batches: sectors whose outage is over
  // come back, and every running target confirms its uploads and every
  // willing one its refresh handoffs.
  std::size_t served = 0;
  auto react = [&] {
    std::erase_if(outages, [&](const std::pair<Time, SectorId>& o) {
      if (o.first > net.now()) return false;
      if (!crashed.count(o.second)) net.restore_sector_physical(o.second);
      return true;
    });
    while (served < log.size()) {
      const Event e = log[served++];
      const auto* req = std::get_if<ReplicaTransferRequested>(&e);
      if (req == nullptr || net.is_physically_corrupted(req->to) ||
          (req->from != kNoSector && refusing.count(req->to))) {
        continue;
      }
      (void)net.file_confirm(net.sectors().at(req->to).owner, req->file,
                             req->index, req->to, {}, std::nullopt);
    }
  };
  auto run_until = [&](Time t) {
    for (;;) {
      react();
      Time next = net.next_task_time();
      for (const auto& o : outages) next = std::min(next, o.first);
      if (next == kNoTime || next > t) break;
      net.advance_to(next);
    }
    net.advance_to(t);
    react();
  };

  std::vector<FileId> files;
  for (int step = 0; step < 60; ++step) {
    switch (rng.uniform_below(8)) {
      case 0:
      case 1: {  // store a file
        const ByteCount size = 200 + rng.uniform_below(1500);
        auto f = net.file_add(client,
                              {size, 10 * (1 + rng.uniform_below(2)), {}});
        if (f.is_ok()) files.push_back(f.value());
        react();
        break;
      }
      case 2: {  // discard something
        if (!files.empty()) {
          const FileId f = files[rng.uniform_below(files.size())];
          if (net.file_exists(f)) (void)net.file_discard(client, f);
        }
        break;
      }
      case 3: {  // a provider crashes for good (sometimes)
        if (rng.uniform_below(6) == 0) {
          const SectorId s = sectors[rng.uniform_below(sectors.size())];
          crashed.insert(s);
          net.corrupt_sector_physical(s);
        }
        break;
      }
      case 4: {  // transient outage: dark past ProofDue, back before deadline
        const SectorId s = sectors[rng.uniform_below(sectors.size())];
        if (!crashed.count(s) && !net.is_physically_corrupted(s)) {
          net.corrupt_sector_physical(s);
          outages.emplace_back(net.now() + 2 * params.proof_cycle, s);
        }
        break;
      }
      case 5: {  // toggle a provider refusing refresh handoffs
        const SectorId s = sectors[rng.uniform_below(sectors.size())];
        if (!refusing.erase(s)) refusing.insert(s);
        break;
      }
      default: {  // let time pass
        run_until(net.now() + 20 + rng.uniform_below(100));
        break;
      }
    }
  }
  run_until(net.now() + 10 * params.proof_cycle);

  // ---- Invariants ---------------------------------------------------------
  // 1. Money conservation, always.
  EXPECT_EQ(total_tokens(), initial);
  EXPECT_EQ(ledger.total_supply(), initial);

  // 2. Every loss event is the file's only one, the file is gone, and
  //    every lost token is compensated or an outstanding liability.
  std::map<FileId, int> lost_events;
  TokenAmount compensated = 0, lost_value = 0;
  for (const Event& e : log) {
    if (const auto* lost = std::get_if<FileLost>(&e)) {
      ++lost_events[lost->file];
      compensated += lost->compensated_now;
      lost_value += lost->value;
    }
  }
  for (const auto& [file, count] : lost_events) {
    EXPECT_EQ(count, 1) << "file " << file << " lost twice";
    EXPECT_FALSE(net.file_exists(file));
  }
  EXPECT_EQ(compensated + net.deposits().outstanding_liabilities(),
            lost_value);

  // 3. Live files have live replicas: no entry points at a corrupted
  //    sector while claiming to be normal.
  for (FileId f : files) {
    if (!net.file_exists(f)) continue;
    const auto& allocs = net.allocations();
    for (ReplicaIndex i = 0; i < allocs.replica_count(f); ++i) {
      const AllocEntry& e = allocs.entry(f, i);
      if (e.state == AllocState::normal) {
        EXPECT_NE(net.sectors().at(e.prev).state, SectorState::corrupted)
            << "file " << f << " replica " << i;
      }
    }
  }

  // 4. Whatever survived is still retrievable: File_Get names at least
  //    one holder, and every holder it names is up to serve the bytes.
  for (FileId f : files) {
    if (!net.file_exists(f)) continue;
    const auto holders = net.file_get(client, f);
    ASSERT_TRUE(holders.is_ok()) << holders.status().to_string();
    EXPECT_FALSE(holders.value().empty()) << "file " << f;
    for (SectorId s : holders.value()) {
      EXPECT_FALSE(net.is_physically_corrupted(s))
          << "file " << f << " names dark sector " << s;
    }
  }
  EXPECT_EQ(total_tokens(), initial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace fi::core
