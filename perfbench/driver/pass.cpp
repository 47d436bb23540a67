// The untraced pass: the workload exactly as fi_sim and fi_orchestrate
// run it, through fi::Session, with host timings taken only around
// Session calls.

#include <optional>
#include <stdexcept>

#include "api/session.h"
#include "common.h"

namespace perfbench {

int run_pass(const Options& options) {
  const fi::Session::OpenOptions open{options.overrides, std::nullopt};

  std::vector<double> setup_s;
  std::optional<fi::Session> session;
  for (std::uint64_t i = 0; i < options.setups; ++i) {
    session.reset();  // free the previous copy outside the timed region
    const auto t0 = Clock::now();
    auto opened = fi::Session::from_config_file(options.config, open);
    const double dt = seconds_since(t0);
    if (!opened.is_ok()) {
      throw std::runtime_error("cannot open workload: " +
                               opened.status().to_string());
    }
    setup_s.push_back(dt);
    session.emplace(std::move(opened).value());
  }
  const fi::core::NetworkStats at_setup = session->network().stats();

  // One proof cycle per call, as the orchestrator steps sessions. A call
  // that runs no cycle only flushes trailing end-of-phase bookkeeping; it
  // counts toward run_s but is not an epoch sample.
  std::vector<double> epoch_s;
  double run_s = 0.0;
  while (!session->finished()) {
    const auto t0 = Clock::now();
    const std::uint64_t ran = session->run_epochs(1);
    const double dt = seconds_since(t0);
    run_s += dt;
    if (ran == 1) epoch_s.push_back(dt);
  }
  const double rss = rss_mb();

  // Finalization fires adversary end hooks; the golden hashes are taken
  // after it (fi_sim --hash-state), so hash and fork follow it too.
  const fi::scenario::MetricsReport report = session->report();

  // Every repetition works on the same end state and must give the same
  // hash. The previous fork is freed before the next is taken, outside
  // the timed region.
  std::vector<double> state_hash_s;
  std::vector<double> fork_s;
  std::string hash;
  bool hash_stable = true;
  bool fork_ok = true;
  std::optional<fi::Session> fork;
  for (std::uint64_t i = 0; i < options.end_ops; ++i) {
    auto t0 = Clock::now();
    const std::string again = session->state_hash();
    state_hash_s.push_back(seconds_since(t0));
    if (i == 0) hash = again;
    hash_stable = hash_stable && again == hash;

    fork.reset();
    t0 = Clock::now();
    auto forked = session->fork();
    fork_s.push_back(seconds_since(t0));
    if (!forked.is_ok()) {
      throw std::runtime_error("fork failed: " + forked.status().to_string());
    }
    fork.emplace(std::move(forked).value());
    fork_ok = fork_ok && fork->epoch() == session->epoch();
  }

  const fi::core::NetworkStats& end = report.totals;
  const std::uint64_t requests =
      (end.files_added - at_setup.files_added) +
      (end.files_discarded - at_setup.files_discarded) +
      report.traffic.requests_attempted;

  JsonObject out;
  out.nums("setup_s", setup_s)
      .nums("epoch_s", epoch_s)
      .num("run_s", run_s)
      .num("rss_mb", rss)
      .nums("state_hash_s", state_hash_s)
      .nums("fork_s", fork_s)
      .str("state_hash", hash)
      .boolean("hash_stable", hash_stable)
      .boolean("fork_ok", fork_ok)
      .u64("epochs", session->epoch())
      .u64("requests", requests)
      .boolean("rent_conserved", report.rent_conserved)
      .object("stats", stats_json(end))
      .object("traffic", traffic_json(report.traffic));
  if (options.fingerprint) {
    out.str("fingerprint", network_fingerprint(session->network()));
  }
  print_and_exit(out.str());
}

}  // namespace perfbench
