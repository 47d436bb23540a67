#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common.h"

/// In-memory span recorder for the traced replay.
///
/// Every call the replay makes into a layer is timed with two
/// `steady_clock` reads. A run makes millions of such calls (10^6 File_Add
/// alone on churn_1m), so instead of one record per call the recorder
/// folds the calls of one operation inside one parent span into a single
/// span record: start of the first call, end of the last, the call count
/// and the summed busy time. Parent spans (setup, each epoch) are exact.
/// Records stay in memory and are written out once, after the run.
namespace perfbench {

/// Operations timed at layer boundaries, grouped by layer.
enum class Op : std::uint8_t {
  core_file_add,
  core_file_discard,
  core_advance_to,
  core_file_confirm,
  core_sector_register,
  core_corrupt,
  core_settle_all_rent,
  traffic_on_epoch,
  traffic_inject,
  sim_send,
  sim_pop_due,
  adversary_on_epoch,
  kCount,
};

inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

/// Span name of an op (`layer.operation`).
const char* op_name(Op op);
/// Layer (module) an op belongs to: core, traffic, sim or adversary.
const char* op_layer(Op op);

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t busy_ns = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a parent span (setup, an epoch); ops recorded until `close`
  /// fold into it.
  void open(std::string name);
  void close();

  /// Records one call of `op` that ran over [t0, t1].
  void record(Op op, Clock::time_point t0, Clock::time_point t1) {
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    Totals& total = totals_[static_cast<std::size_t>(op)];
    ++total.calls;
    total.busy_ns += ns;
    Fold& fold = folds_[static_cast<std::size_t>(op)];
    if (fold.calls == 0) fold.start = t0;
    fold.end = t1;
    ++fold.calls;
    fold.busy_ns += ns;
  }

  /// Runs `fn` as one call of `op`.
  template <typename Fn>
  decltype(auto) call(Op op, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(op, t0, Clock::now());
    } else {
      decltype(auto) result = fn();
      record(op, t0, Clock::now());
      return result;
    }
  }

  [[nodiscard]] const Totals& totals(Op op) const {
    return totals_[static_cast<std::size_t>(op)];
  }
  /// Summed wall time of every closed parent span.
  [[nodiscard]] double parents_wall_s() const { return parents_wall_s_; }

  /// Writes every span as one JSON line: name, id, parent id (-1 for a
  /// root), start and end in seconds since the tracer was built, and for
  /// folded op spans the call count and busy seconds.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Fold {
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t calls = 0;
    std::int64_t busy_ns = 0;
  };
  struct Record {
    std::string name;
    std::int64_t parent = -1;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t calls = 0;
    double busy_s = 0.0;
  };

  [[nodiscard]] double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::array<Totals, kOpCount> totals_{};
  std::array<Fold, kOpCount> folds_{};
  std::vector<Record> records_;
  std::int64_t open_parent_ = -1;
  Clock::time_point open_start_;
  double parents_wall_s_ = 0.0;
};

}  // namespace perfbench
