// The epoch sweep's determinism and allocation contracts. The engine is
// single-threaded (the suite name dates from when sweeps could run on a
// worker pool); `Network::set_workers` and `engine.workers` survive only
// as no-ops, and these tests pin that they stay byte-invisible:
//   - a direct-engine drive through churn, corruption (ProofDeadline
//     confiscation + compensation), late-proof punishment and refresh
//     handoffs replays the same event stream, pinned to a reference
//     digest, whatever `set_workers` is passed;
//   - a mixed scenario's report does not depend on `engine.workers`;
//   - once capacities are warm, a steady-state proof sweep performs ZERO
//     heap allocations (counting global operator new hook below).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/network.h"
#include "crypto/sha256.h"
#include "ledger/account.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/hex.h"

// ---- Counting allocator hook ----------------------------------------------
//
// Global operator new replacement (must have external linkage). Counting is
// off by default, so the rest of the binary is unaffected; the
// zero-allocation test flips it on around a steady-state sweep.

std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};

namespace {
void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using fi::AccountId;
using fi::Time;
using fi::TokenAmount;
using fi::core::Event;
using fi::core::FileId;
using fi::core::Network;
using fi::core::NetworkStats;
using fi::core::Params;
using fi::core::ReplicaTransferRequested;
using fi::core::SectorId;
using fi::scenario::PhaseSpec;
using fi::scenario::ScenarioRunner;
using fi::scenario::ScenarioSpec;

// ---- Event recording ------------------------------------------------------

struct EventPrinter {
  std::ostringstream& out;

  void operator()(const fi::core::FileStored& e) {
    out << "stored f" << e.file;
  }
  void operator()(const fi::core::UploadFailed& e) {
    out << "upload_failed f" << e.file << " " << e.reason;
  }
  void operator()(const fi::core::FileDiscarded& e) {
    out << "discarded f" << e.file << " rent=" << e.for_unpaid_rent;
  }
  void operator()(const fi::core::FileLost& e) {
    out << "lost f" << e.file << " v=" << e.value << " c="
        << e.compensated_now;
  }
  void operator()(const fi::core::SectorCorrupted& e) {
    out << "corrupted s" << e.sector << " conf=" << e.confiscated;
  }
  void operator()(const fi::core::SectorRemoved& e) {
    out << "removed s" << e.sector << " ref=" << e.refunded;
  }
  void operator()(const fi::core::ProviderPunished& e) {
    out << "punished s" << e.sector << " a=" << e.amount << " " << e.reason;
  }
  void operator()(const ReplicaTransferRequested& e) {
    out << "transfer f" << e.file << "#" << e.index << " s" << e.from
        << "->s" << e.to << " d=" << e.deadline;
  }
  void operator()(const fi::core::ReplicaActivated& e) {
    out << "activated f" << e.file << "#" << e.index << " s" << e.sector;
  }
  void operator()(const fi::core::ReplicaReleased& e) {
    out << "released f" << e.file << "#" << e.index << " s" << e.sector;
  }
  void operator()(const fi::core::RefreshSkipped& e) {
    out << "refresh_skipped f" << e.file << "#" << e.index << " s"
        << e.sector;
  }
  void operator()(const fi::core::RentDistributed& e) {
    out << "rent_distributed " << e.total;
  }
  void operator()(const fi::core::RetrievalRequested& e) {
    out << "retrieval f" << e.file;
  }
};

// ---- A miniature honest-provider harness over core::Network ---------------

struct DriveResult {
  std::string events;
  NetworkStats stats;
  TokenAmount rent_charged = 0;
  TokenAmount rent_paid = 0;
  TokenAmount settled = 0;
  std::size_t files_left = 0;
};

bool stats_equal(const NetworkStats& a, const NetworkStats& b) {
  return a.files_added == b.files_added && a.files_stored == b.files_stored &&
         a.upload_failures == b.upload_failures &&
         a.files_discarded == b.files_discarded &&
         a.files_lost == b.files_lost && a.value_lost == b.value_lost &&
         a.value_compensated == b.value_compensated &&
         a.sectors_corrupted == b.sectors_corrupted &&
         a.refreshes_started == b.refreshes_started &&
         a.refreshes_completed == b.refreshes_completed &&
         a.refreshes_failed == b.refreshes_failed &&
         a.refreshes_self == b.refreshes_self &&
         a.refresh_collisions == b.refresh_collisions &&
         a.add_resamples == b.add_resamples &&
         a.punishments == b.punishments;
}

/// Drives the full pipeline — uploads, proof cycles, refreshes, physical
/// corruption with one transient outage, discards — passing `workers` to
/// the no-op `set_workers`, and records every emitted event with its
/// timestamp.
DriveResult drive(std::uint64_t workers) {
  Params params;
  params.verify_proofs = false;
  params.min_value = 10;
  params.k = 3;
  params.cap_para = 200.0;
  params.gamma_deposit = 0.01;
  params.avg_refresh = 2.0;  // heavy refresh traffic => refresh sweeps

  fi::ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/99);
  net.set_auto_prove(true);
  net.set_workers(workers);

  std::ostringstream log;
  std::vector<ReplicaTransferRequested> transfers;
  net.subscribe([&](const Event& event) {
    log << "t" << net.now() << " ";
    std::visit(EventPrinter{log}, event);
    log << "\n";
    if (const auto* t = std::get_if<ReplicaTransferRequested>(&event)) {
      transfers.push_back(*t);
    }
  });

  const AccountId provider = ledger.create_account(100'000'000);
  const AccountId client = ledger.create_account(100'000'000);
  constexpr std::uint64_t kSectors = 60;
  for (std::uint64_t s = 0; s < kSectors; ++s) {
    const auto id =
        net.sector_register(provider, 4 * params.min_capacity);
    EXPECT_TRUE(id.is_ok()) << id.status().to_string();
  }

  std::vector<FileId> files;
  for (int f = 0; f < 200; ++f) {
    const auto id = net.file_add(
        client, {static_cast<fi::ByteCount>(1024 + (f % 2) * 512), 10, {}});
    EXPECT_TRUE(id.is_ok()) << id.status().to_string();
    files.push_back(id.value());
  }

  const auto confirm_all = [&] {
    std::vector<ReplicaTransferRequested> batch;
    batch.swap(transfers);
    for (const ReplicaTransferRequested& req : batch) {
      if (!net.sectors().exists(req.to)) continue;
      (void)net.file_confirm(net.sectors().at(req.to).owner, req.file,
                             req.index, req.to, {}, std::nullopt);
    }
  };
  const auto advance_confirming = [&](Time horizon) {
    confirm_all();
    while (true) {
      const Time next = net.next_task_time();
      if (next == fi::kNoTime || next > horizon) break;
      net.advance_to(next);
      confirm_all();
    }
    net.advance_to(horizon);
    confirm_all();
  };

  // Upload window, then three clean proof cycles.
  advance_confirming(net.now() + 3 + 3 * params.proof_cycle);

  // Physical corruption: two sectors go dark, one recovers before the
  // deadline (late punishments only), the others breach (ProofDeadline
  // confiscation + compensation).
  net.corrupt_sector_physical(0);
  net.corrupt_sector_physical(1);
  net.corrupt_sector_physical(2);
  advance_confirming(net.now() + 2 * params.proof_cycle);  // late window
  net.restore_sector_physical(2);
  advance_confirming(net.now() + 3 * params.proof_cycle);  // past deadline

  // Churny tail: discard a deterministic slice, keep proving.
  for (std::size_t f = 0; f < files.size(); f += 7) {
    if (net.file_exists(files[f])) {
      (void)net.file_discard(client, files[f]);
    }
  }
  advance_confirming(net.now() + 3 * params.proof_cycle);

  DriveResult result;
  result.settled = net.settle_all_rent();
  result.events = log.str();
  result.stats = net.stats();
  result.rent_charged = net.total_rent_charged();
  result.rent_paid = net.total_rent_paid();
  result.files_left = net.file_count();
  return result;
}

/// SHA-256 of `drive`'s event log: a change to the Check_Proof or
/// Check_Refresh paths that moves one event fails here.
constexpr const char* kDriveEventsDigest =
    "6dd780c857d0f403db54c2d4321c2b428a39dfa6aaf66998366a7d4d6c1bcb03";

TEST(ParallelDeterminismTest, EventSequenceIsWorkerCountInvariant) {
  const DriveResult serial = drive(1);
  ASSERT_GT(serial.events.size(), 0u);
  EXPECT_GT(serial.stats.sectors_corrupted, 0u);  // confiscation exercised
  EXPECT_GT(serial.stats.punishments, 0u);        // late path exercised
  EXPECT_GT(serial.stats.refreshes_completed, 0u);
  EXPECT_EQ(fi::util::to_hex(fi::crypto::sha256(std::span(
                reinterpret_cast<const std::uint8_t*>(serial.events.data()),
                serial.events.size()))),
            kDriveEventsDigest);

  const DriveResult keyed = drive(8);
  EXPECT_EQ(serial.events, keyed.events);
  EXPECT_TRUE(stats_equal(serial.stats, keyed.stats));
  EXPECT_EQ(serial.rent_charged, keyed.rent_charged);
  EXPECT_EQ(serial.rent_paid, keyed.rent_paid);
  EXPECT_EQ(serial.settled, keyed.settled);
  EXPECT_EQ(serial.files_left, keyed.files_left);
}

// ---- Scenario-level: serialized reports ----------------------------------

ScenarioSpec mixed_spec(std::uint64_t workers) {
  ScenarioSpec spec;
  spec.name = "parallel_determinism";
  spec.seed = 1234;
  spec.engine_workers = workers;
  spec.sectors = 400;
  spec.sector_units = 4;
  spec.initial_files = 800;
  spec.file_size_min = 1024;
  spec.file_size_max = 2048;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.k = 3;
  spec.params.cap_para = 200.0;
  spec.params.gamma_deposit = 0.01;
  spec.params.avg_refresh = 5.0;
  spec.phases.push_back(PhaseSpec::make_churn(3, 100, 0.05));
  spec.phases.push_back(PhaseSpec::make_corrupt_burst(0.02, 4));
  spec.phases.push_back(PhaseSpec::make_selfish_refresh(0.3, 3));
  spec.phases.push_back(PhaseSpec::make_rent_audit(1));
  return spec;
}

TEST(ParallelDeterminismTest, ScenarioReportsAreByteIdenticalAcrossWorkers) {
  ScenarioRunner plain(mixed_spec(1));
  const std::string reference = plain.run().to_json(false);
  ASSERT_FALSE(reference.empty());

  ScenarioRunner keyed(mixed_spec(8));
  EXPECT_EQ(reference, keyed.run().to_json(false));
}

// ---- Allocation-free steady-state sweeps ----------------------------------

/// The SoA/arena layout's contract: after warm-up, a proof-cycle sweep
/// recycles every buffer it needs (the pending list's task vectors, the
/// popped-task batch), and Auto_CheckProof needs no scratch buffer at all,
/// so a steady-state epoch makes no heap allocation.
TEST(ParallelDeterminismTest, SteadyStateSweepIsAllocationFree) {
  Params params;
  params.verify_proofs = false;
  params.min_value = 10;
  params.k = 3;
  params.cap_para = 200.0;
  params.gamma_deposit = 0.01;
  params.avg_refresh = 1e15;  // refresh countdowns never fire: pure sweeps

  fi::ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/77);
  net.set_auto_prove(true);

  const AccountId provider = ledger.create_account(100'000'000);
  const AccountId client = ledger.create_account(100'000'000);
  for (std::uint64_t s = 0; s < 40; ++s) {
    ASSERT_TRUE(net.sector_register(provider, 4 * params.min_capacity).is_ok());
  }
  std::vector<ReplicaTransferRequested> transfers;
  net.subscribe([&](const Event& event) {
    if (const auto* t = std::get_if<ReplicaTransferRequested>(&event)) {
      transfers.push_back(*t);
    }
  });
  std::vector<FileId> files;
  for (int f = 0; f < 100; ++f) {
    const auto id = net.file_add(client, {1024, 10, {}});
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    files.push_back(id.value());
  }
  for (const ReplicaTransferRequested& req : transfers) {
    ASSERT_TRUE(net
                    .file_confirm(net.sectors().at(req.to).owner, req.file,
                                  req.index, req.to, {}, std::nullopt)
                    .is_ok());
  }

  // Warm-up: three full proof cycles grow every reused buffer to its
  // steady-state capacity.
  net.advance_to(net.now() + 3 + 3 * params.proof_cycle);
  ASSERT_GT(net.stats().files_stored, 0u);

  // Measured window: two more steady-state cycles, zero allocations.
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  net.advance_to(net.now() + 2 * params.proof_cycle);
  g_count_allocations.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);

  // Sanity: the hook itself works — a deliberate allocation is counted.
  g_count_allocations.store(true, std::memory_order_relaxed);
  auto* probe = new std::uint64_t(42);
  g_count_allocations.store(false, std::memory_order_relaxed);
  delete probe;
  EXPECT_GE(g_allocation_count.load(std::memory_order_relaxed), 1u);
}

}  // namespace
