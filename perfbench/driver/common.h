#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/network.h"
#include "json_out.h"
#include "traffic/engine.h"

/// Pieces shared by the untraced pass (pass.cpp) and the traced replay
/// (traced.cpp): host timing, resident-set probe, and the JSON encodings
/// of the simulated outcome both sides must agree on.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Resident set of this process in MiB (VmRSS), 0 if unreadable.
double rss_mb();

/// Every NetworkStats counter, by name.
JsonObject stats_json(const fi::core::NetworkStats& stats);

/// Every scalar of the traffic report block plus the flagged stream ids
/// (empty object when traffic is disabled).
JsonObject traffic_json(const fi::traffic::TrafficMetrics& metrics);

/// Lower-case hex of the network's from-scratch incremental fingerprint.
std::string network_fingerprint(const fi::core::Network& net);

/// Prints `line` to stdout and ends the process with status 0 without
/// running destructors: the end state is hundreds of MB of small
/// allocations, and freeing them would lengthen every pass unmeasured.
[[noreturn]] void print_and_exit(const std::string& line);

/// Command-line options of the pass and trace modes.
struct Options {
  std::string mode;
  std::string config;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::uint64_t setups = 1;
  std::uint64_t end_ops = 1;
  bool fingerprint = false;
  std::string spans_path;
};

/// One untraced pass through `fi::Session`: opens the workload
/// `options.setups` times (timing each open), steps the last session to
/// completion with `run_epochs(1)`, then times `state_hash()` and `fork()`
/// on the end state `options.end_ops` times each. Prints one JSON line.
int run_pass(const Options& options);

/// The traced replay (traced.cpp); prints one JSON line with the replay's
/// end state (fingerprint, stats, traffic) and the per-layer numbers.
int run_traced(const Options& options);

}  // namespace perfbench
