#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "util/binary_io.h"
#include "util/types.h"

/// Pending list (Fig. 1): tasks the network executes automatically at a
/// specific future time. Tasks at the same timestamp run in scheduling
/// order, so executions are deterministic.
///
/// Gas prepayment (§IV-A3): the request that schedules a task pays its
/// gas up front — e.g. File_Add charges the Auto_CheckAlloc gas in the
/// same transaction, and each Auto_CheckProof charges the client rent
/// *plus* the gas for its own re-arming. The pending list itself never
/// touches balances; by the time a task is queued its execution is
/// already funded, so tasks cannot fail for lack of gas and the list
/// never needs to evict.
namespace fi::core {

enum class TaskKind : std::uint8_t {
  check_alloc,       ///< Auto_CheckAlloc(f)
  check_proof,       ///< Auto_CheckProof(f)
  check_refresh,     ///< Auto_CheckRefresh(f, i)
  rent_distribution, ///< periodic rent payout (§IV-A2)
};

/// One scheduled execution. `file` is kNoFile for network-wide tasks
/// (rent distribution); `index` is meaningful only for per-replica kinds
/// (check_refresh).
struct Task {
  TaskKind kind = TaskKind::check_alloc;
  FileId file = kNoFile;
  ReplicaIndex index = 0;
};

/// Time buckets in one vector sorted by descending time, so the earliest
/// bucket pops from the back. Within a bucket, tasks sit in scheduling
/// order: appending a task to its timestamp's bucket gives the (time,
/// insertion) order with no sequence counter and no per-task heap sift.
/// The engine schedules at a handful of distinct offsets from the current
/// time (proof cycle, transfer windows, rent period), so the bucket count
/// stays small and a binary search over it is a few comparisons.
///
/// Emptied task vectors go to a spare list and back into the next new
/// bucket, so once capacity is warm (re-arming storms recycle the same
/// storage every proof cycle) scheduling and popping allocate nothing.
class PendingList {
 public:
  /// Enqueues `task` for execution at time `at` (gas already prepaid by
  /// the scheduling request). `at` may equal the current batch time:
  /// Network::advance_to runs such tasks within the same call, after the
  /// tasks already due at `at`.
  void schedule(Time at, Task task) {
    bucket_at(at).push_back(task);
    ++size_;
    ++version_;
  }

  /// Pops every task with timestamp <= `t`, ordered by (time, insertion),
  /// appending onto `out` without clearing it. The epoch loop passes the
  /// same buffer every batch, so steady-state pops allocate nothing.
  void pop_due_into(Time t, std::vector<std::pair<Time, Task>>& out) {
    while (!buckets_.empty() && buckets_.back().at <= t) {
      Bucket& bucket = buckets_.back();
      for (const Task& task : bucket.tasks) out.emplace_back(bucket.at, task);
      size_ -= bucket.tasks.size();
      bucket.tasks.clear();
      spare_.push_back(std::move(bucket.tasks));
      buckets_.pop_back();
      ++version_;
    }
  }

  /// Convenience wrapper returning a fresh vector (tests / cold paths).
  [[nodiscard]] std::vector<std::pair<Time, Task>> pop_due(Time t) {
    std::vector<std::pair<Time, Task>> due;
    pop_due_into(t, due);
    return due;
  }

  /// Time of the earliest pending task, or kNoTime when empty.
  [[nodiscard]] Time next_time() const {
    return buckets_.empty() ? kNoTime : buckets_.back().at;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Mutation counter for incremental state hashing: bumped on every
  /// schedule and pop. Monotone within a process; not comparable across
  /// save/load.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Canonical snapshot encoding: tasks in execution order — buckets from
  /// the earliest, each in insertion order — byte-identical to the
  /// historical multimap iteration. `load` re-schedules in that order,
  /// which rebuilds the same buckets.
  void save(util::BinaryWriter& writer) const {
    writer.u64(size_);
    for (auto bucket = buckets_.rbegin(); bucket != buckets_.rend();
         ++bucket) {
      for (const Task& task : bucket->tasks) {
        writer.u64(bucket->at);
        writer.u8(static_cast<std::uint8_t>(task.kind));
        writer.u64(task.file);
        writer.u32(task.index);
      }
    }
  }
  void load(util::BinaryReader& reader) {
    buckets_.clear();
    spare_.clear();
    size_ = 0;
    ++version_;
    const std::uint64_t n = reader.count(21);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Time at = reader.u64();
      Task task;
      const std::uint8_t kind = reader.u8();
      if (kind > static_cast<std::uint8_t>(TaskKind::rent_distribution)) {
        reader.fail();
        return;
      }
      task.kind = static_cast<TaskKind>(kind);
      task.file = reader.u64();
      task.index = reader.u32();
      schedule(at, task);
    }
  }

 private:
  struct Bucket {
    Time at = 0;
    std::vector<Task> tasks;
  };

  /// The task vector of the bucket at time `at`, inserted in time order
  /// (with recycled storage) when there is none yet.
  std::vector<Task>& bucket_at(Time at) {
    const auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), at,
        [](const Bucket& bucket, Time t) { return bucket.at > t; });
    if (it != buckets_.end() && it->at == at) return it->tasks;
    Bucket bucket{at, {}};
    if (!spare_.empty()) {
      bucket.tasks = std::move(spare_.back());
      spare_.pop_back();
    }
    return buckets_.insert(it, std::move(bucket))->tasks;
  }

  /// Non-empty buckets, strictly descending by `at`.
  std::vector<Bucket> buckets_;
  /// Cleared task vectors kept for their capacity.
  // fi-lint: not-serialized(allocator state: empty vectors kept for reuse)
  std::vector<std::vector<Task>> spare_;
  /// Total tasks over all buckets.
  std::size_t size_ = 0;
  // fi-lint: not-serialized(in-process mutation counter for incremental hashing)
  std::uint64_t version_ = 0;
};

}  // namespace fi::core
