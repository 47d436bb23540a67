#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/types.h"
#include "crypto/hash.h"
#include "util/arena.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/prng.h"

/// Allocation table (Fig. 1): maps (file, replica index) to its storage
/// entry and maintains the reverse indexes the protocol needs:
///
///  * by-prev / by-next sector indexes, so corrupting or draining a sector
///    touches exactly the affected entries (no global scans);
///  * a dense sampler over entries in `normal` state, used by §VI-B's
///    Poisson admission rebalancing to pick uniform random backups.
///
/// Storage is a struct-of-arrays slab: every entry field lives in its own
/// dense array, and a file's `cp` replicas occupy one contiguous run of
/// slots. The proof sweep streams the state/prev/last arrays instead of
/// striding 120-byte records (the 32-byte CommR never enters the sweep's
/// cache footprint), and freed runs are recycled through a fixed-block
/// pool (`util::FixedBlockPool`) keyed by `cp`, so steady-state churn
/// reuses warm slots instead of growing the slab.
///
/// Index positions are *intrusive*: each slot stores its own position in
/// the by-prev / by-next buckets and in the normal-entry sampler, which
/// removes the per-bucket positional hash maps entirely — swap-erase is
/// two array writes plus one position fix-up.
namespace fi::core {

struct AllocEntry {
  /// Sector currently storing the replica (kNoSector when none yet).
  SectorId prev = kNoSector;
  /// Sector the replica is being (re)allocated to.
  SectorId next = kNoSector;
  /// Time of the last accepted proof of storage (kNoTime = never).
  Time last = kNoTime;
  AllocState state = AllocState::alloc;
  /// Replica commitment (CommR) registered at File_Confirm; the expected
  /// commitment for WindowPoSt verification.
  crypto::Hash256 comm_r;
};

using EntryKey = std::pair<FileId, ReplicaIndex>;

class AllocTable {
 public:
  /// Mutable per-file window over the slab for Auto_CheckProof: one array
  /// read of the file's range yields direct access to all of its replicas
  /// (contiguous slots).
  ///
  /// A view may write ONLY `last`; prev/state are coupled to the reverse
  /// indexes and the normal-entry sampler and must go through the setters
  /// below. The setters write the same arrays, so reads through a view see
  /// their effect. The view dangles after `create_file` (the slab may
  /// grow), `remove_file` of its file, or `load`.
  class SweepView {
   public:
    [[nodiscard]] std::uint32_t size() const { return count_; }
    [[nodiscard]] AllocState state(ReplicaIndex i) const { return state_[i]; }
    [[nodiscard]] SectorId prev(ReplicaIndex i) const { return prev_[i]; }
    [[nodiscard]] Time last(ReplicaIndex i) const { return last_[i]; }
    /// The one sanctioned write through a view. Does NOT bump the table's
    /// version — the caller calls `note_sweep_writes` afterwards.
    void set_last(ReplicaIndex i, Time t) { last_[i] = t; }

   private:
    friend class AllocTable;
    const AllocState* state_ = nullptr;
    const SectorId* prev_ = nullptr;
    Time* last_ = nullptr;
    std::uint32_t count_ = 0;
  };

  /// Creates `cp` empty entries for a new file (recycling a pooled slot
  /// run when one of that size is free).
  void create_file(FileId file, std::uint32_t cp);

  /// Drops all entries of a file (the file leaves the network) and returns
  /// its slot run to the pool. Sector reference bookkeeping is the
  /// caller's job (Network owns the flows).
  void remove_file(FileId file);

  [[nodiscard]] bool has_file(FileId file) const {
    return file < ranges_.size() && ranges_[file].count != 0;
  }
  [[nodiscard]] std::uint32_t replica_count(FileId file) const;

  /// Materialized copy of one entry (does not track later mutations).
  [[nodiscard]] AllocEntry entry(FileId file, ReplicaIndex idx) const;

  [[nodiscard]] SweepView sweep_view_of(FileId file);

  /// Entry mutation: `set_prev` / `set_next` keep the reverse indexes
  /// consistent; `set_state` keeps the normal-entry sampler consistent.
  void set_prev(FileId file, ReplicaIndex idx, SectorId sector);
  void set_next(FileId file, ReplicaIndex idx, SectorId sector);
  void set_state(FileId file, ReplicaIndex idx, AllocState state);
  void set_last(FileId file, ReplicaIndex idx, Time last);
  void set_comm_r(FileId file, ReplicaIndex idx, const crypto::Hash256& comm_r);

  /// Entries with prev == sector / next == sector (copied snapshots, for
  /// callers that mutate while iterating).
  [[nodiscard]] std::vector<EntryKey> entries_with_prev(SectorId sector) const;
  [[nodiscard]] std::vector<EntryKey> entries_with_next(SectorId sector) const;

  /// Allocation-free views of the same index slices. Invalidated by any
  /// set_prev / set_next / remove_file — read-only consumers only.
  [[nodiscard]] std::span<const EntryKey> with_prev(SectorId sector) const;
  [[nodiscard]] std::span<const EntryKey> with_next(SectorId sector) const;

  [[nodiscard]] std::size_t count_with_prev(SectorId sector) const {
    return with_prev(sector).size();
  }
  [[nodiscard]] std::size_t count_with_next(SectorId sector) const {
    return with_next(sector).size();
  }

  /// Uniform random entry currently in `normal` state (nullopt if none) —
  /// the §VI-B swap-in selector.
  [[nodiscard]] std::optional<EntryKey> random_normal_entry(
      util::Xoshiro256& rng) const;

  [[nodiscard]] std::size_t normal_entry_count() const {
    return normal_entries_.size();
  }
  [[nodiscard]] std::size_t file_count() const { return file_count_; }

  /// Mutation counter for incremental state hashing: bumped by every
  /// mutating member. `SweepView::set_last` stamps bypass it; whoever
  /// writes through a view must call `note_sweep_writes` afterwards.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  void note_sweep_writes() { ++version_; }

  /// Canonical snapshot encoding / full-state restore (`src/snapshot`).
  ///
  /// File groups are encoded in ascending file id (the range column's own
  /// order), but the reverse indexes and the normal-entry sampler are
  /// encoded in their exact dense-array order: their positions feed
  /// iteration (`with_prev` spans) and uniform sampling
  /// (`random_normal_entry`), so a swap-erase history reshuffle would
  /// change later draws and break save→load→continue byte-identity.
  /// Slot placement inside the slab is NOT observable and not encoded;
  /// `load` repacks files dense in file-id order.
  ///
  /// `sector_count` bounds the sector ids accepted in the reverse-index
  /// sections (the caller loads the sector table first), and
  /// `file_id_bound` (the network's next file id) bounds the file ids of
  /// the groups: buckets and ranges are dense id-indexed vectors, so an
  /// astronomically large id in a crafted body must be rejected up front
  /// instead of driving a huge resize.
  void save(util::BinaryWriter& writer) const;
  void load(util::BinaryReader& reader, std::uint64_t sector_count,
            std::uint64_t file_id_bound);

 private:
  /// A file's contiguous slot run in the slab.
  struct Range {
    std::size_t offset = 0;
    std::uint32_t count = 0;
  };
  static constexpr std::size_t kNoPos = ~std::size_t{0};

  [[nodiscard]] const Range& range_of(FileId file) const;
  [[nodiscard]] std::size_t slot_of(FileId file, ReplicaIndex idx) const;
  void index_add(std::vector<std::vector<EntryKey>>& buckets,
                 std::vector<std::size_t>& positions, SectorId sector,
                 EntryKey key, std::size_t slot);
  void index_remove(std::vector<std::vector<EntryKey>>& buckets,
                    std::vector<std::size_t>& positions, SectorId sector,
                    EntryKey key, std::size_t slot);
  void sampler_add(EntryKey key, std::size_t slot);
  void sampler_remove(EntryKey key, std::size_t slot);

  /// Slot run per file, indexed by FileId (ids are dense counters and
  /// never reused); `count == 0` marks an absent id.
  std::vector<Range> ranges_;
  /// Number of non-empty ranges.
  std::size_t file_count_ = 0;
  /// Struct-of-arrays slab, indexed by slot = range.offset + replica.
  std::vector<SectorId> prev_;
  std::vector<SectorId> next_;
  std::vector<Time> last_;
  std::vector<AllocState> state_;
  std::vector<crypto::Hash256> comm_r_;
  /// Intrusive positions of each slot's key inside the by-prev/by-next
  /// buckets and the normal sampler (kNoPos when absent).
  // fi-lint: not-serialized(derived: load() rebuilds from the index sections)
  std::vector<std::size_t> pos_in_prev_;
  // fi-lint: not-serialized(derived: load() rebuilds from the index sections)
  std::vector<std::size_t> pos_in_next_;
  // fi-lint: not-serialized(derived: load() rebuilds from the sampler section)
  std::vector<std::size_t> pos_in_normal_;
  /// Reverse indexes as dense per-sector buckets (sector ids are dense
  /// registration indices, so a flat vector replaces the sector hash map).
  std::vector<std::vector<EntryKey>> by_prev_;
  std::vector<std::vector<EntryKey>> by_next_;
  /// Dense array for O(1) uniform sampling of normal entries.
  std::vector<EntryKey> normal_entries_;
  /// Recycled slot runs, keyed by run length (= cp).
  // fi-lint: not-serialized(allocator state; load() repacks the slab dense)
  util::FixedBlockPool pool_;
  // fi-lint: not-serialized(in-process mutation counter for incremental hashing)
  std::uint64_t version_ = 0;
};

}  // namespace fi::core
