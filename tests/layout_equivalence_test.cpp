// Layout-equivalence property tests for the SoA/arena hot-state tables.
//
// The PR 7 memory-layout refactor replaced node-based containers with
// struct-of-arrays storage plus swap-erase reverse indexes:
//
//   * core::PendingList:  ordered multimap  -> time buckets
//   * core::SectorTable:  record vector     -> per-field SoA + Fenwick
//   * core::AllocTable:   nested hash maps  -> slab + dense bucket vectors
//
// Everything observable about the old containers must survive: query
// results, iteration order (bucket order IS serialized), sampler draws,
// and the canonical save encoding. Each suite below drives the production
// table and an in-test reference oracle — written in the old container
// idiom — through the same randomized op sequence (3 seeds x 10^4 ops)
// and requires them to agree after every step, including across a
// save -> load -> save round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/alloc_table.h"
#include "core/network.h"
#include "core/pending_list.h"
#include "core/sector.h"
#include "ledger/account.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/prng.h"

namespace fi {
namespace {

using core::AllocState;
using core::AllocTable;
using core::EntryKey;
using core::FileId;
using core::PendingList;
using core::ReplicaIndex;
using core::SectorId;
using core::SectorState;
using core::SectorTable;
using core::Task;
using core::TaskKind;
using util::Xoshiro256;

constexpr std::uint64_t kSeeds[] = {0xA11CE, 0xB0B, 0xC4A05};
constexpr std::size_t kOpsPerSeed = 10'000;

template <typename T>
std::vector<std::uint8_t> save_bytes(const T& table) {
  util::BinaryWriter writer;
  table.save(writer);
  return writer.data();
}

// ---------------------------------------------------------------------------
// PendingList vs the historical insertion-ordered multimap
// ---------------------------------------------------------------------------

/// Reference oracle in the old idiom: a multimap keyed by time. Equal keys
/// keep insertion order (guaranteed since C++11), which is exactly the
/// (time, insertion) order the time buckets must reproduce.
struct PendingOracle {
  std::multimap<Time, Task> items;

  void schedule(Time at, Task task) { items.emplace(at, task); }

  std::vector<std::pair<Time, Task>> pop_due(Time t) {
    std::vector<std::pair<Time, Task>> due;
    while (!items.empty() && items.begin()->first <= t) {
      due.emplace_back(items.begin()->first, items.begin()->second);
      items.erase(items.begin());
    }
    return due;
  }

  [[nodiscard]] Time next_time() const {
    return items.empty() ? kNoTime : items.begin()->first;
  }

  [[nodiscard]] std::vector<std::uint8_t> save_encoding() const {
    util::BinaryWriter writer;
    writer.u64(items.size());
    for (const auto& [at, task] : items) {
      writer.u64(at);
      writer.u8(static_cast<std::uint8_t>(task.kind));
      writer.u64(task.file);
      writer.u32(task.index);
    }
    return writer.data();
  }
};

void expect_task_eq(const Task& a, const Task& b, std::size_t step) {
  EXPECT_EQ(a.kind, b.kind) << "step " << step;
  EXPECT_EQ(a.file, b.file) << "step " << step;
  EXPECT_EQ(a.index, b.index) << "step " << step;
}

TEST(LayoutEquivalence, PendingListMatchesMultimapOracle) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    PendingList pending;
    PendingOracle oracle;
    Time now = 0;

    for (std::size_t step = 0; step < kOpsPerSeed; ++step) {
      const std::uint64_t op = rng.uniform_below(10);
      if (op < 7) {
        Task task;
        task.kind = static_cast<TaskKind>(rng.uniform_below(4));
        task.file =
            rng.uniform_below(5) == 0 ? core::kNoFile : rng.uniform_below(100);
        task.index = static_cast<ReplicaIndex>(rng.uniform_below(8));
        // Equal timestamps are common on purpose: the tie-break order is
        // the property under test.
        const Time at = now + rng.uniform_below(64);
        pending.schedule(at, task);
        oracle.schedule(at, task);
      } else {
        now += rng.uniform_below(48);
        const auto got = pending.pop_due(now);
        const auto want = oracle.pop_due(now);
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].first, want[i].first) << "step " << step;
          expect_task_eq(got[i].second, want[i].second, step);
        }
      }
      ASSERT_EQ(pending.size(), oracle.items.size()) << "step " << step;
      ASSERT_EQ(pending.empty(), oracle.items.empty()) << "step " << step;
      ASSERT_EQ(pending.next_time(), oracle.next_time()) << "step " << step;

      if (step % 512 == 511) {
        // The canonical encoding is the multimap's iteration order.
        const auto encoded = save_bytes(pending);
        ASSERT_EQ(encoded, oracle.save_encoding()) << "step " << step;

        // Round trip, then CONTINUE on the loaded instance: load rebuilds
        // the buckets from the wire order, and the rest of the op sequence
        // proves the rebuilt list behaves identically.
        PendingList loaded;
        util::BinaryReader reader(encoded);
        loaded.load(reader);
        ASSERT_TRUE(reader.ok() && reader.exhausted()) << "step " << step;
        ASSERT_EQ(save_bytes(loaded), encoded) << "step " << step;
        pending = std::move(loaded);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SectorTable vs a record-vector oracle with linear-scan sampling
// ---------------------------------------------------------------------------

/// Reference oracle in the old idiom: one vector of full Sector records,
/// totals recomputed by scanning, and capacity-weighted sampling done by a
/// linear cumulative-weight walk. The Fenwick `find_by_prefix` returns the
/// smallest index whose cumulative weight exceeds the target, so both
/// sides consume one `uniform_below(total)` draw and must pick the same
/// sector.
struct SectorOracle {
  explicit SectorOracle(const core::Params& p) : params(p) {}

  const core::Params& params;
  std::vector<core::Sector> recs;

  [[nodiscard]] std::uint64_t weight(std::size_t i) const {
    return recs[i].state == SectorState::normal
               ? recs[i].capacity / params.min_capacity
               : 0;
  }
  [[nodiscard]] std::uint64_t total_weight() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) total += weight(i);
    return total;
  }
  [[nodiscard]] SectorId sample(Xoshiro256& rng) const {
    std::uint64_t target = rng.uniform_below(total_weight());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const std::uint64_t w = weight(i);
      if (target < w) return i;
      target -= w;
    }
    FI_CHECK_MSG(false, "sample walked past total weight");
    return core::kNoSector;
  }

  [[nodiscard]] ByteCount total_capacity(SectorState state) const {
    ByteCount total = 0;
    for (const core::Sector& s : recs) {
      if (s.state == state) total += s.capacity;
    }
    return total;
  }
  [[nodiscard]] std::uint64_t rentable_units() const {
    std::uint64_t units = 0;
    for (const core::Sector& s : recs) {
      if (s.state == SectorState::normal || s.state == SectorState::disabled) {
        units += s.capacity / params.min_capacity;
      }
    }
    return units;
  }

  [[nodiscard]] std::vector<std::uint8_t> save_encoding() const {
    util::BinaryWriter writer;
    writer.u64(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const core::Sector& s = recs[i];
      writer.u64(i);
      writer.u64(s.owner);
      writer.u64(s.capacity);
      writer.u64(s.free_cap);
      writer.u8(static_cast<std::uint8_t>(s.state));
      writer.u64(s.registered_at);
      writer.u32(s.ref_count);
      writer.u128(s.rent_acc_snapshot);
    }
    return writer.data();
  }
};

void expect_sector_eq(const core::Sector& got, const core::Sector& want,
                      std::size_t step) {
  EXPECT_EQ(got.id, want.id) << "step " << step;
  EXPECT_EQ(got.owner, want.owner) << "step " << step;
  EXPECT_EQ(got.capacity, want.capacity) << "step " << step;
  EXPECT_EQ(got.free_cap, want.free_cap) << "step " << step;
  EXPECT_EQ(got.state, want.state) << "step " << step;
  EXPECT_EQ(got.registered_at, want.registered_at) << "step " << step;
  EXPECT_EQ(got.ref_count, want.ref_count) << "step " << step;
  EXPECT_EQ(static_cast<std::uint64_t>(got.rent_acc_snapshot),
            static_cast<std::uint64_t>(want.rent_acc_snapshot))
      << "step " << step;
}

TEST(LayoutEquivalence, SectorTableMatchesRecordVectorOracle) {
  core::Params params;
  params.min_capacity = 1024;

  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    // Twin draw streams: the production Fenwick sampler and the oracle's
    // linear walk each consume exactly one uniform_below per draw, so
    // identically seeded generators must stay in lockstep.
    Xoshiro256 draw_a(seed ^ 0x5EC7), draw_b(seed ^ 0x5EC7);

    SectorTable table(params);
    SectorOracle oracle(params);
    Time now = 0;

    for (std::size_t step = 0; step < kOpsPerSeed; ++step) {
      const std::uint64_t op = rng.uniform_below(12);
      const std::size_t count = oracle.recs.size();
      const SectorId id = count == 0 ? 0 : rng.uniform_below(count);
      switch (op) {
        case 0:
        case 1: {
          const core::ProviderId owner = rng.uniform_below(16);
          // Occasionally invalid (not a min_capacity multiple) to pin the
          // rejection path too.
          const ByteCount capacity =
              rng.uniform_below(10) == 0
                  ? params.min_capacity + 1
                  : (1 + rng.uniform_below(8)) * params.min_capacity;
          const auto got = table.register_sector(owner, capacity, now);
          if (capacity % params.min_capacity == 0) {
            ASSERT_TRUE(got.is_ok()) << "step " << step;
            ASSERT_EQ(got.value(), oracle.recs.size()) << "step " << step;
            core::Sector s;
            s.id = got.value();
            s.owner = owner;
            s.capacity = capacity;
            s.free_cap = capacity;
            s.state = SectorState::normal;
            s.registered_at = now;
            oracle.recs.push_back(s);
          } else {
            ASSERT_FALSE(got.is_ok()) << "step " << step;
          }
          break;
        }
        case 2:
        case 3: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          const ByteCount size =
              rng.uniform_below(rec.capacity + params.min_capacity);
          const bool want_ok =
              rec.state == SectorState::normal && rec.free_cap >= size;
          ASSERT_EQ(table.reserve(id, size).is_ok(), want_ok)
              << "step " << step;
          if (want_ok) rec.free_cap -= size;
          break;
        }
        case 4: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          // Dead sectors ignore releases; live ones must never exceed
          // capacity, so the oracle bounds the size like real callers do.
          const ByteCount reserved = rec.capacity - rec.free_cap;
          const ByteCount size =
              reserved == 0 ? 0 : rng.uniform_below(reserved + 1);
          table.release(id, size);
          if (rec.state != SectorState::corrupted &&
              rec.state != SectorState::removed) {
            rec.free_cap += size;
          }
          break;
        }
        case 5: {
          if (count == 0) break;
          table.add_ref(id);
          ++oracle.recs[id].ref_count;
          break;
        }
        case 6: {
          if (count == 0 || oracle.recs[id].ref_count == 0) break;
          table.drop_ref(id);
          --oracle.recs[id].ref_count;
          break;
        }
        case 7: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          const bool want_ok = rec.state == SectorState::normal;
          ASSERT_EQ(table.disable(id).is_ok(), want_ok) << "step " << step;
          if (want_ok) rec.state = SectorState::disabled;
          break;
        }
        case 8: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          const bool want = rec.state != SectorState::corrupted &&
                            rec.state != SectorState::removed;
          ASSERT_EQ(table.mark_corrupted(id), want) << "step " << step;
          if (want) rec.state = SectorState::corrupted;
          break;
        }
        case 9: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          if (rec.state != SectorState::disabled || rec.ref_count != 0) break;
          table.mark_removed(id);
          rec.state = SectorState::removed;
          break;
        }
        case 10: {
          if (count == 0) break;
          const core::RentAcc value =
              (static_cast<core::RentAcc>(rng()) << 64) | rng();
          table.set_rent_acc_snapshot(id, value);
          oracle.recs[id].rent_acc_snapshot = value;
          break;
        }
        default:
          now += rng.uniform_below(32);
          break;
      }

      // Per-step light checks: totals, the touched record, and one
      // capacity-weighted draw through each sampler.
      ASSERT_EQ(table.count(), oracle.recs.size()) << "step " << step;
      for (const SectorState state :
           {SectorState::normal, SectorState::disabled, SectorState::corrupted,
            SectorState::removed}) {
        ASSERT_EQ(table.total_capacity(state), oracle.total_capacity(state))
            << "step " << step;
      }
      ASSERT_EQ(table.rentable_units(), oracle.rentable_units())
          << "step " << step;
      if (!oracle.recs.empty()) {
        expect_sector_eq(table.at(id), oracle.recs[id], step);
      }
      if (oracle.total_weight() > 0) {
        const auto got = table.random_sector(draw_a);
        ASSERT_TRUE(got.is_ok()) << "step " << step;
        ASSERT_EQ(got.value(), oracle.sample(draw_b)) << "step " << step;
      } else {
        // No draw is consumed on failure, so the twin streams stay aligned.
        ASSERT_FALSE(table.random_sector(draw_a).is_ok()) << "step " << step;
      }

      if (step % 1024 == 1023) {
        for (std::size_t i = 0; i < oracle.recs.size(); ++i) {
          expect_sector_eq(table.at(i), oracle.recs[i], step);
        }
        const auto encoded = save_bytes(table);
        ASSERT_EQ(encoded, oracle.save_encoding()) << "step " << step;

        // load() rebuilds the Fenwick weights and totals from the records;
        // the clone must re-encode identically and sample identically.
        SectorTable loaded(params);
        util::BinaryReader reader(encoded);
        loaded.load(reader);
        ASSERT_TRUE(reader.ok() && reader.exhausted()) << "step " << step;
        ASSERT_EQ(save_bytes(loaded), encoded) << "step " << step;
        if (oracle.total_weight() > 0) {
          Xoshiro256 clone_a(seed + step), clone_b(seed + step);
          for (int d = 0; d < 8; ++d) {
            ASSERT_EQ(table.random_sector(clone_a).value(),
                      loaded.random_sector(clone_b).value())
                << "step " << step;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AllocTable vs a map-of-vectors oracle with linear-search swap-erase
// ---------------------------------------------------------------------------

constexpr FileId kFileUniverse = 48;
constexpr SectorId kSectorUniverse = 32;

/// Reference oracle in the old idiom: an ordered map of per-file entry
/// vectors plus explicit reverse-index buckets and a normal-entry sampler
/// array. Bucket and sampler order are OBSERVABLE (both are serialized,
/// and the sampler indexes draws by position), so the oracle reproduces
/// the production discipline — append on add, swap-erase on remove — with
/// the position found by linear search, which is unique per bucket.
struct AllocOracle {
  struct Entry {
    SectorId prev = core::kNoSector;
    SectorId next = core::kNoSector;
    Time last = kNoTime;
    AllocState state = AllocState::alloc;
    crypto::Hash256 comm_r{};
  };

  std::map<FileId, std::vector<Entry>> files;
  std::vector<std::vector<EntryKey>> by_prev;
  std::vector<std::vector<EntryKey>> by_next;
  std::vector<EntryKey> normal_entries;

  static void bucket_add(std::vector<std::vector<EntryKey>>& buckets,
                         SectorId sector, EntryKey key) {
    if (sector >= buckets.size()) buckets.resize(sector + 1);
    buckets[sector].push_back(key);
  }
  static void swap_erase(std::vector<EntryKey>& items, EntryKey key) {
    const auto it = std::find(items.begin(), items.end(), key);
    FI_CHECK_MSG(it != items.end(), "oracle bucket missing entry");
    *it = items.back();
    items.pop_back();
  }

  void create_file(FileId file, std::uint32_t cp) {
    files.emplace(file, std::vector<Entry>(cp));
  }
  void remove_file(FileId file) {
    const std::vector<Entry>& entries = files.at(file);
    for (std::size_t idx = 0; idx < entries.size(); ++idx) {
      const EntryKey key{file, static_cast<ReplicaIndex>(idx)};
      if (entries[idx].prev != core::kNoSector) {
        swap_erase(by_prev[entries[idx].prev], key);
      }
      if (entries[idx].next != core::kNoSector) {
        swap_erase(by_next[entries[idx].next], key);
      }
      if (entries[idx].state == AllocState::normal) {
        swap_erase(normal_entries, key);
      }
    }
    files.erase(file);
  }
  void set_link(FileId file, ReplicaIndex idx, SectorId sector, bool is_prev) {
    Entry& e = files.at(file)[idx];
    SectorId& link = is_prev ? e.prev : e.next;
    auto& buckets = is_prev ? by_prev : by_next;
    const EntryKey key{file, idx};
    if (link != core::kNoSector) swap_erase(buckets[link], key);
    link = sector;
    if (sector != core::kNoSector) bucket_add(buckets, sector, key);
  }
  void set_state(FileId file, ReplicaIndex idx, AllocState state) {
    Entry& e = files.at(file)[idx];
    const EntryKey key{file, idx};
    if (e.state == AllocState::normal && state != AllocState::normal) {
      swap_erase(normal_entries, key);
    } else if (e.state != AllocState::normal && state == AllocState::normal) {
      normal_entries.push_back(key);
    }
    e.state = state;
  }

  [[nodiscard]] std::vector<EntryKey> with(
      const std::vector<std::vector<EntryKey>>& buckets,
      SectorId sector) const {
    if (sector >= buckets.size()) return {};
    return buckets[sector];
  }

  [[nodiscard]] std::vector<std::uint8_t> save_encoding() const {
    util::BinaryWriter writer;
    writer.u64(files.size());
    for (const auto& [file, entries] : files) {
      writer.u64(file);
      writer.u32(static_cast<std::uint32_t>(entries.size()));
      for (const Entry& e : entries) {
        writer.u64(e.prev);
        writer.u64(e.next);
        writer.u64(e.last);
        writer.u8(static_cast<std::uint8_t>(e.state));
        writer.raw(e.comm_r.bytes);
      }
    }
    const auto save_index =
        [&writer](const std::vector<std::vector<EntryKey>>& buckets) {
          std::uint64_t non_empty = 0;
          for (const auto& items : buckets) {
            if (!items.empty()) ++non_empty;
          }
          writer.u64(non_empty);
          for (SectorId sector = 0; sector < buckets.size(); ++sector) {
            if (buckets[sector].empty()) continue;
            writer.u64(sector);
            writer.u64(buckets[sector].size());
            for (const EntryKey& key : buckets[sector]) {
              writer.u64(key.first);
              writer.u32(key.second);
            }
          }
        };
    save_index(by_prev);
    save_index(by_next);
    writer.u64(normal_entries.size());
    for (const EntryKey& key : normal_entries) {
      writer.u64(key.first);
      writer.u32(key.second);
    }
    return writer.data();
  }
};

TEST(LayoutEquivalence, AllocTableMatchesMapOracle) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    Xoshiro256 draw_a(seed ^ 0xA110C), draw_b(seed ^ 0xA110C);

    AllocTable table;
    AllocOracle oracle;

    // Picks an existing file; map iteration order is deterministic, so
    // both sides see the same choice.
    const auto pick_file = [&oracle](Xoshiro256& r) {
      auto it = oracle.files.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           r.uniform_below(oracle.files.size())));
      return it->first;
    };
    const auto pick_replica = [&oracle](FileId file, Xoshiro256& r) {
      return static_cast<ReplicaIndex>(
          r.uniform_below(oracle.files.at(file).size()));
    };

    for (std::size_t step = 0; step < kOpsPerSeed; ++step) {
      const std::uint64_t op = rng.uniform_below(16);
      if (op < 3) {
        // Create/remove churn through a small id universe exercises the
        // slab pool's block reuse under the same observable order.
        const FileId file = rng.uniform_below(kFileUniverse);
        if (!oracle.files.contains(file)) {
          const auto cp = static_cast<std::uint32_t>(1 + rng.uniform_below(4));
          table.create_file(file, cp);
          oracle.create_file(file, cp);
        } else {
          table.remove_file(file);
          oracle.remove_file(file);
        }
      } else if (!oracle.files.empty()) {
        const FileId file = pick_file(rng);
        const ReplicaIndex idx = pick_replica(file, rng);
        switch (op % 5) {
          case 0:
          case 1: {
            const bool is_prev = op % 2 == 0;
            const SectorId sector = rng.uniform_below(4) == 0
                                        ? core::kNoSector
                                        : rng.uniform_below(kSectorUniverse);
            if (is_prev) {
              table.set_prev(file, idx, sector);
            } else {
              table.set_next(file, idx, sector);
            }
            oracle.set_link(file, idx, sector, is_prev);
            break;
          }
          case 2: {
            const auto state = static_cast<AllocState>(rng.uniform_below(4));
            table.set_state(file, idx, state);
            oracle.set_state(file, idx, state);
            break;
          }
          case 3: {
            const Time last = rng.uniform_below(1 << 20);
            table.set_last(file, idx, last);
            oracle.files.at(file)[idx].last = last;
            break;
          }
          default: {
            crypto::Hash256 comm_r;
            for (std::uint8_t& b : comm_r.bytes) {
              b = static_cast<std::uint8_t>(rng.uniform_below(256));
            }
            table.set_comm_r(file, idx, comm_r);
            oracle.files.at(file)[idx].comm_r = comm_r;
            break;
          }
        }
        // Light check: the touched file's entries, field for field.
        const auto& entries = oracle.files.at(file);
        ASSERT_EQ(table.replica_count(file), entries.size())
            << "step " << step;
        for (ReplicaIndex i = 0; i < entries.size(); ++i) {
          const core::AllocEntry got = table.entry(file, i);
          ASSERT_EQ(got.prev, entries[i].prev) << "step " << step;
          ASSERT_EQ(got.next, entries[i].next) << "step " << step;
          ASSERT_EQ(got.last, entries[i].last) << "step " << step;
          ASSERT_EQ(got.state, entries[i].state) << "step " << step;
          ASSERT_EQ(got.comm_r, entries[i].comm_r) << "step " << step;
        }
      }

      ASSERT_EQ(table.file_count(), oracle.files.size()) << "step " << step;
      ASSERT_EQ(table.normal_entry_count(), oracle.normal_entries.size())
          << "step " << step;

      // Sampler draw: `uniform_below(size)` indexes the dense array, so
      // the draw pins the sampler's exact element order, not just its
      // membership.
      if (!oracle.normal_entries.empty()) {
        const auto got = table.random_normal_entry(draw_a);
        ASSERT_TRUE(got.has_value()) << "step " << step;
        ASSERT_EQ(*got,
                  oracle.normal_entries[draw_b.uniform_below(
                      oracle.normal_entries.size())])
            << "step " << step;
      } else {
        ASSERT_FALSE(table.random_normal_entry(draw_a).has_value())
            << "step " << step;
      }

      if (step % 512 == 511) {
        for (FileId file = 0; file < kFileUniverse; ++file) {
          ASSERT_EQ(table.has_file(file), oracle.files.contains(file))
              << "step " << step;
        }
        // Reverse-index iteration order, bucket by bucket.
        for (SectorId sector = 0; sector < kSectorUniverse; ++sector) {
          ASSERT_EQ(table.entries_with_prev(sector),
                    oracle.with(oracle.by_prev, sector))
              << "step " << step << " sector " << sector;
          ASSERT_EQ(table.entries_with_next(sector),
                    oracle.with(oracle.by_next, sector))
              << "step " << step << " sector " << sector;
          ASSERT_EQ(table.count_with_prev(sector),
                    oracle.with(oracle.by_prev, sector).size())
              << "step " << step;
          ASSERT_EQ(table.count_with_next(sector),
                    oracle.with(oracle.by_next, sector).size())
              << "step " << step;
        }

        const auto encoded = save_bytes(table);
        ASSERT_EQ(encoded, oracle.save_encoding()) << "step " << step;

        // The loaded clone repacks the slab dense in file-id order — a
        // different physical layout that must re-encode and sample
        // identically.
        AllocTable loaded;
        util::BinaryReader reader(encoded);
        loaded.load(reader, kSectorUniverse, kFileUniverse);
        ASSERT_TRUE(reader.ok() && reader.exhausted()) << "step " << step;
        ASSERT_EQ(save_bytes(loaded), encoded) << "step " << step;
        if (!oracle.normal_entries.empty()) {
          Xoshiro256 clone_a(seed + step), clone_b(seed + step);
          for (int d = 0; d < 8; ++d) {
            ASSERT_EQ(table.random_normal_entry(clone_a),
                      loaded.random_normal_entry(clone_b))
                << "step " << step;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Network level: the composed tables under real protocol traffic
// ---------------------------------------------------------------------------

/// Randomized protocol ops on a live engine, then the end-to-end layout
/// property: the canonical encoding round-trips byte-identically and the
/// restored engine's samplers draw in lockstep with the original — the
/// table-level guarantees composed through Network's own call sites.
TEST(NetworkLayoutEquivalence, RandomizedOpsRoundTripByteIdentical) {
  core::Params params;
  params.min_capacity = 1024;
  params.min_value = 10;
  params.k = 2;
  params.cap_para = 10.0;
  params.gamma_deposit = 0.5;
  params.proof_cycle = 100;
  params.proof_due = 150;
  params.proof_deadline = 300;
  params.avg_refresh = 1000.0;
  params.verify_proofs = false;
  params.cr_size = 256;

  ledger::Ledger ledger;
  constexpr std::uint64_t kEngineSeed = 11;
  core::Network net(params, ledger, kEngineSeed);
  const core::ClientId client = ledger.create_account(10'000'000);
  std::vector<core::ProviderId> providers;
  for (int i = 0; i < 4; ++i) providers.push_back(ledger.create_account(1'000'000));

  const auto confirm_all = [&net](FileId file) {
    for (ReplicaIndex i = 0; i < net.allocations().replica_count(file); ++i) {
      const core::AllocEntry e = net.allocations().entry(file, i);
      if (e.state != AllocState::alloc || e.next == core::kNoSector) continue;
      const core::ProviderId owner = net.sectors().at(e.next).owner;
      ASSERT_TRUE(
          net.file_confirm(owner, file, i, e.next, {}, std::nullopt).is_ok());
    }
  };

  Xoshiro256 rng(0xFEED);
  std::vector<FileId> known_files;
  std::optional<SectorId> phys_corrupted;
  for (int step = 0; step < 400; ++step) {
    const std::size_t sectors = net.sectors().count();
    switch (rng.uniform_below(10)) {
      case 0:
      case 1:
        (void)net.sector_register(
            providers[rng.uniform_below(providers.size())],
            (4 + rng.uniform_below(4)) * params.min_capacity);
        break;
      case 2:
      case 3: {
        const auto file = net.file_add(client, {1000, 20, {}});
        if (file.is_ok()) known_files.push_back(file.value());
        break;
      }
      case 4:
        if (!known_files.empty()) {
          const FileId file =
              known_files[rng.uniform_below(known_files.size())];
          if (net.file_exists(file)) confirm_all(file);
        }
        break;
      case 5:
        net.advance(1 + rng.uniform_below(2 * params.proof_cycle));
        break;
      case 6:
        if (sectors > 0 && !phys_corrupted) {
          const SectorId id = rng.uniform_below(sectors);
          net.corrupt_sector_physical(id);
          phys_corrupted = id;
        }
        break;
      case 7:
        if (phys_corrupted) {
          net.restore_sector_physical(*phys_corrupted);
          phys_corrupted.reset();
        }
        break;
      case 8:
        net.settle_all_rent();
        break;
      default:
        if (!known_files.empty()) {
          const FileId file =
              known_files[rng.uniform_below(known_files.size())];
          if (net.file_exists(file)) {
            ASSERT_TRUE(net.file_get(client, file).is_ok());
          }
        }
        break;
    }
  }

  // Deterministic tail: the random mix may have corrupted or discarded its
  // way to an empty sampler, so pin live normal replicas at save time.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        net.sector_register(providers[0], 8 * params.min_capacity).is_ok());
  }
  const auto tail_file = net.file_add(client, {1000, 20, {}});
  ASSERT_TRUE(tail_file.is_ok());
  confirm_all(tail_file.value());
  net.advance(params.transfer_window(1000));
  ASSERT_TRUE(net.file_exists(tail_file.value()));

  // Non-vacuity: the op mix above must leave real state behind, or the
  // round-trip and twin-draw checks below check nothing.
  ASSERT_GT(net.sectors().count(), 0u);
  ASSERT_GT(net.allocations().file_count(), 0u);
  ASSERT_GT(net.allocations().normal_entry_count(), 0u);

  // Canonical encoding of engine + ledger.
  util::BinaryWriter net_writer, ledger_writer;
  net.save(net_writer);
  ledger.save(ledger_writer);

  // Restore into a twin and require byte-identical re-encodings. The twin
  // engine is constructed first (so its system accounts claim the same
  // ledger ids as the original's construction did), then the ledger load
  // replaces every balance, then the engine load restores the state.
  ledger::Ledger ledger2;
  core::Network net2(params, ledger2, kEngineSeed);
  util::BinaryReader ledger_reader(ledger_writer.data());
  ledger2.load(ledger_reader);
  ASSERT_TRUE(ledger_reader.ok());
  util::BinaryReader net_reader(net_writer.data());
  const util::Status loaded = net2.load(net_reader);
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();

  util::BinaryWriter net_writer2, ledger_writer2;
  net2.save(net_writer2);
  ledger2.save(ledger_writer2);
  EXPECT_EQ(net_writer.data(), net_writer2.data());
  EXPECT_EQ(ledger_writer.data(), ledger_writer2.data());

  // Twin sampler draws: load rebuilt the Fenwick weights and repacked the
  // allocation slab, but the observable draw sequences must be unchanged.
  Xoshiro256 alloc_a(21), alloc_b(21), sector_a(22), sector_b(22);
  for (int d = 0; d < 16; ++d) {
    EXPECT_EQ(net.allocations().random_normal_entry(alloc_a),
              net2.allocations().random_normal_entry(alloc_b));
    const auto got_a = net.sectors().random_sector(sector_a);
    const auto got_b = net2.sectors().random_sector(sector_b);
    ASSERT_EQ(got_a.is_ok(), got_b.is_ok());
    if (got_a.is_ok()) {
      EXPECT_EQ(got_a.value(), got_b.value());
    }
  }
}

}  // namespace
}  // namespace fi
