// perfbench_driver — the compiled half of the repository benchmark.
//
//   perfbench_driver pass  --config <cfg> [--set key=value]... [--setups N]
//                          [--end-ops N] [--fingerprint]
//   perfbench_driver trace --config <cfg> [--set key=value]... --spans <path>
//   perfbench_driver calibrate --threads N
//
// `pass` runs one workload through fi::Session with tracing off and prints
// one JSON line of host timings and simulated outcome (with --fingerprint,
// also the network fingerprint the traced replay is compared against).
// `trace` replays the scenario loop through public engine calls with a
// span around every call into a layer, writes the spans to <path> and
// prints one JSON line of the replay's end state and per-layer numbers.
// `calibrate` times a
// fixed busy loop on one thread and on N threads at once (the host's
// parallel-efficiency probe). perfbench/run.py drives all three modes; see
// perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver pass|trace --config <cfg> "
               "[--set key=value]... [--setups N] [--end-ops N] "
               "[--fingerprint] "
               "[--spans <path>]\n"
               "       perfbench_driver calibrate --threads N\n",
               why);
  return 2;
}

/// A fixed amount of dependent integer work (~0.1 s on one core).
std::uint64_t busy_work() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < 60'000'000ULL; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall seconds for `threads` threads each doing `busy_work` at once.
double timed_busy(unsigned threads) {
  std::vector<std::uint64_t> sink(threads, 0);
  const auto t0 = perfbench::Clock::now();
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t] { sink[t] = busy_work(); });
    }
  }
  const double wall = perfbench::seconds_since(t0);
  std::uint64_t folded = 0;
  for (const std::uint64_t v : sink) folded ^= v;
  if (folded == 1) std::fprintf(stderr, "\n");  // keep the work observable
  return wall;
}

int calibrate(unsigned threads) {
  const double one = timed_busy(1);
  const double many = timed_busy(threads);
  perfbench::JsonObject out;
  out.u64("threads", threads)
      .num("one_thread_s", one)
      .num("n_threads_s", many)
      .num("slowdown", many / one);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing mode");
  perfbench::Options options;
  options.mode = argv[1];
  if (options.mode == "calibrate") {
    if (argc != 4 || std::string(argv[2]) != "--threads") {
      return usage("calibrate takes --threads N");
    }
    const unsigned long threads = std::strtoul(argv[3], nullptr, 10);
    if (threads == 0 || threads > 256) return usage("--threads out of range");
    return calibrate(static_cast<unsigned>(threads));
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--config" && has_value) {
      options.config = argv[++i];
    } else if (arg == "--set" && has_value) {
      const std::string kv = argv[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) return usage("bad --set");
      options.overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--setups" && has_value) {
      options.setups = std::strtoull(argv[++i], nullptr, 10);
      if (options.setups == 0) return usage("--setups must be positive");
    } else if (arg == "--end-ops" && has_value) {
      options.end_ops = std::strtoull(argv[++i], nullptr, 10);
      if (options.end_ops == 0) return usage("--end-ops must be positive");
    } else if (arg == "--fingerprint") {
      options.fingerprint = true;
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.config.empty()) return usage("--config is required");
  try {
    if (options.mode == "pass") return perfbench::run_pass(options);
    if (options.mode == "trace") {
      if (options.spans_path.empty()) return usage("trace needs --spans");
      return perfbench::run_traced(options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return usage("mode must be pass or trace");
}
