// Quickstart: the full life of one file on a FileInsurer network, printed
// as the Fig. 3 protocol timeline.
//
//   * four providers register sectors (pledging deposits),
//   * a client stores a file (File_Add -> transfers -> File_Confirm ->
//     Auto_CheckAlloc),
//   * providers keep proving storage (File_Prove / Auto_CheckProof),
//   * the network refreshes replica locations (Auto_Refresh /
//     Auto_CheckRefresh),
//   * the client retrieves the file and finally discards it.
//
// `core::Network` is the on-chain protocol and never sees file bytes, so
// this example plays the off-chain providers itself. On every
// ReplicaTransferRequested it seals the bytes for the target sector (PoRep)
// and confirms them with the seal proof; before each batch of automatic
// tasks it answers the epoch beacon's WindowPoSt challenges for every
// replica it holds.

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/network.h"
#include "crypto/merkle.h"
#include "crypto/porep.h"
#include "crypto/post.h"
#include "ledger/account.h"

using namespace fi;
using namespace fi::core;

namespace {

const char* event_name(const Event& event) {
  if (std::get_if<FileStored>(&event)) return "FileStored";
  if (std::get_if<UploadFailed>(&event)) return "UploadFailed";
  if (std::get_if<FileDiscarded>(&event)) return "FileDiscarded";
  if (std::get_if<FileLost>(&event)) return "FileLost";
  if (std::get_if<SectorCorrupted>(&event)) return "SectorCorrupted";
  if (std::get_if<SectorRemoved>(&event)) return "SectorRemoved";
  if (std::get_if<ProviderPunished>(&event)) return "ProviderPunished";
  if (std::get_if<ReplicaTransferRequested>(&event)) return "TransferRequested";
  if (std::get_if<ReplicaActivated>(&event)) return "ReplicaActivated";
  if (std::get_if<ReplicaReleased>(&event)) return "ReplicaReleased";
  if (std::get_if<RefreshSkipped>(&event)) return "RefreshSkipped";
  if (std::get_if<RentDistributed>(&event)) return "RentDistributed";
  if (std::get_if<RetrievalRequested>(&event)) return "RetrievalRequested";
  return "?";
}

/// The off-chain side: sealed replica bytes per (file, slot, sector), and
/// the transfers the chain has asked for but nobody has served yet.
struct Providers {
  Network& net;
  std::vector<std::uint8_t> original;  ///< the client's copy
  std::vector<ReplicaTransferRequested> requested;
  std::map<std::tuple<FileId, ReplicaIndex, SectorId>,
           std::vector<std::uint8_t>>
      held;

  [[nodiscard]] crypto::ReplicaId id(FileId file, ReplicaIndex index,
                                     SectorId sector) const {
    return {net.sectors().at(sector).owner, sector,
            replica_nonce(file, index)};
  }

  /// Raw bytes of a replica: unsealed from the current holder (refresh),
  /// or the client's copy (initial upload).
  [[nodiscard]] std::vector<std::uint8_t> source(
      const ReplicaTransferRequested& req) const {
    const auto it = held.find({req.file, req.index, req.from});
    if (it == held.end()) return original;
    return crypto::unseal(it->second, id(req.file, req.index, req.from),
                          net.params().seal);
  }

  /// File_Confirm for every requested transfer, with a real seal proof.
  void serve() {
    for (const ReplicaTransferRequested& req : std::exchange(requested, {})) {
      const auto raw = source(req);
      const crypto::ReplicaId rid = id(req.file, req.index, req.to);
      auto sealed = crypto::seal(raw, rid, net.params().seal);
      const auto proof = crypto::prove_seal(raw, sealed, rid,
                                            net.params().seal);
      if (net.file_confirm(rid.provider, req.file, req.index, req.to,
                           crypto::replica_commitment(sealed), proof)
              .is_ok()) {
        held[{req.file, req.index, req.to}] = std::move(sealed);
      }
    }
  }

  /// File_Prove (WindowPoSt) for every live replica not yet proven at the
  /// current epoch.
  void prove() {
    const Time epoch = net.now();
    for (const auto& [key, sealed] : held) {
      const auto& [file, index, sector] = key;
      if (!net.file_exists(file)) continue;
      const AllocEntry e = net.allocations().entry(file, index);
      if (e.prev != sector || e.state == AllocState::corrupted) continue;
      if (e.last != kNoTime && e.last >= epoch) continue;
      const crypto::ReplicaId rid = id(file, index, sector);
      (void)net.file_prove(
          rid.provider, file, index, sector,
          crypto::prove_window(sealed, rid, net.beacon(epoch), epoch,
                               net.params().post_challenges));
    }
  }

  /// Advances the chain to `t` one task batch at a time, serving transfers
  /// after every batch and proving just before each one.
  void run_until(Time t) {
    for (;;) {
      serve();
      const Time next = net.next_task_time();
      if (next == kNoTime || next > t) break;
      if (next > net.now()) {
        net.advance_to(next - 1);
        prove();
      }
      net.advance_to(next);
    }
    net.advance_to(t);
  }
};

}  // namespace

int main() {
  Params params;
  params.min_capacity = 4096;
  params.min_value = 10;
  params.k = 2;
  params.cap_para = 10.0;
  params.gamma_deposit = 0.05;
  params.proof_cycle = 50;
  params.proof_due = 75;
  params.proof_deadline = 150;
  params.avg_refresh = 3.0;  // refresh often, so the timeline shows it
  params.delay_per_kib = 5;
  params.min_transfer_window = 5;
  params.verify_proofs = true;  // real PoRep + WindowPoSt
  params.seal = {.work = 1, .challenges = 2};
  params.cr_size = 1024;

  ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/2026);
  Providers providers{net, {}, {}, {}};
  std::printf("== FileInsurer quickstart ==\n\n");

  // A live timeline of protocol events (the Fig. 3 picture). Listeners must
  // not call back into the engine, so transfer requests are queued for
  // `Providers::serve` and released replicas are dropped here.
  net.subscribe([&](const Event& event) {
    std::printf("  [t=%4llu] %-18s",
                static_cast<unsigned long long>(net.now()), event_name(event));
    if (const auto* req = std::get_if<ReplicaTransferRequested>(&event)) {
      providers.requested.push_back(*req);
      if (req->from == kNoSector) {
        std::printf(" replica %u: client -> sector %llu (deadline t=%llu)",
                    req->index, static_cast<unsigned long long>(req->to),
                    static_cast<unsigned long long>(req->deadline));
      } else {
        std::printf(" replica %u: sector %llu -> sector %llu (refresh)",
                    req->index, static_cast<unsigned long long>(req->from),
                    static_cast<unsigned long long>(req->to));
      }
    } else if (const auto* act = std::get_if<ReplicaActivated>(&event)) {
      std::printf(" replica %u live in sector %llu", act->index,
                  static_cast<unsigned long long>(act->sector));
    } else if (const auto* rel = std::get_if<ReplicaReleased>(&event)) {
      providers.held.erase({rel->file, rel->index, rel->sector});
    } else if (const auto* lost = std::get_if<FileLost>(&event)) {
      std::printf(" value %llu, compensated %llu",
                  static_cast<unsigned long long>(lost->value),
                  static_cast<unsigned long long>(lost->compensated_now));
    } else if (const auto* rent = std::get_if<RentDistributed>(&event)) {
      std::printf(" %llu tokens credited to providers",
                  static_cast<unsigned long long>(rent->total));
    }
    std::printf("\n");
  });

  // Providers rent out sectors; deposits are pledged automatically.
  std::printf("-- four providers register one 32 KiB sector each --\n");
  const ClientId client = ledger.create_account(1'000'000);
  for (int i = 0; i < 4; ++i) {
    const ProviderId provider = ledger.create_account(1'000'000);
    const auto sector = net.sector_register(provider, 8 * 4096);
    std::printf("  provider %llu: sector %llu, deposit %llu tokens\n",
                static_cast<unsigned long long>(provider),
                static_cast<unsigned long long>(sector.value()),
                static_cast<unsigned long long>(
                    net.deposits().remaining(sector.value())));
  }

  // The client stores a file.
  std::printf("\n-- client stores a 2000-byte file of value 20 "
              "(cp = k*value/minValue = 4 replicas) --\n");
  std::string text =
      "FileInsurer: a scalable and reliable protocol for decentralized "
      "file storage in blockchain. ";
  std::vector<std::uint8_t> data;
  while (data.size() < 2000) data.insert(data.end(), text.begin(), text.end());
  data.resize(2000);
  providers.original = data;
  const auto file = net.file_add(
      client, {data.size(), 20, crypto::merkle_root_of_data(data)});
  if (!file.is_ok()) {
    std::printf("store failed: %s\n", file.status().to_string().c_str());
    return 1;
  }

  std::printf("\n-- proof cycles pass (WindowPoSt every cycle) until the "
              "Exp(AvgRefresh)\n   countdown fires and a replica moves --\n");
  Time horizon = 6 * params.proof_cycle + 10;
  while (net.stats().refreshes_completed == 0 &&
         horizon < 40 * params.proof_cycle) {
    providers.run_until(horizon);
    horizon += params.proof_cycle;
  }

  // File_Get names the holders; the first one unseals its replica and the
  // client checks the bytes against the file's Merkle root.
  std::printf("\n-- client retrieves the file --\n");
  bool retrieved = false;
  const auto holders = net.file_get(client, file.value());
  if (holders.is_ok()) {
    const crypto::Hash256 root = net.file(file.value()).merkle_root;
    for (const SectorId sector : holders.value()) {
      for (ReplicaIndex i = 0;
           i < net.allocations().replica_count(file.value()) && !retrieved;
           ++i) {
        const auto it = providers.held.find({file.value(), i, sector});
        if (it == providers.held.end()) continue;
        const auto raw =
            crypto::unseal(it->second, providers.id(file.value(), i, sector),
                           params.seal);
        retrieved = crypto::merkle_root_of_data(raw) == root;
      }
      if (retrieved) break;
    }
  }
  std::printf("  retrieval %s\n", retrieved ? "succeeded, content verified "
                                              "against the Merkle root"
                                            : "FAILED");

  std::printf("\n-- client discards the file; space returns to CRs --\n");
  (void)net.file_discard(client, file.value());
  providers.run_until(net.now() + 2 * params.proof_cycle);

  const auto& stats = net.stats();
  std::printf("\n== summary ==\n");
  std::printf("  files stored / discarded / lost : %llu / %llu / %llu\n",
              static_cast<unsigned long long>(stats.files_stored),
              static_cast<unsigned long long>(stats.files_discarded),
              static_cast<unsigned long long>(stats.files_lost));
  std::printf("  refreshes started / completed   : %llu / %llu\n",
              static_cast<unsigned long long>(stats.refreshes_started),
              static_cast<unsigned long long>(stats.refreshes_completed));
  std::printf("  punishments / corrupted sectors : %llu / %llu\n",
              static_cast<unsigned long long>(stats.punishments),
              static_cast<unsigned long long>(stats.sectors_corrupted));
  return retrieved && stats.punishments == 0 ? 0 : 1;
}
