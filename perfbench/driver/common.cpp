#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "snapshot/incremental_hash.h"

namespace perfbench {

void print_and_exit(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::_Exit(0);
}

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0.0;
}

JsonObject stats_json(const fi::core::NetworkStats& s) {
  JsonObject o;
  o.u64("files_added", s.files_added)
      .u64("files_stored", s.files_stored)
      .u64("upload_failures", s.upload_failures)
      .u64("files_discarded", s.files_discarded)
      .u64("files_lost", s.files_lost)
      .u64("value_lost", s.value_lost)
      .u64("value_compensated", s.value_compensated)
      .u64("sectors_corrupted", s.sectors_corrupted)
      .u64("refreshes_started", s.refreshes_started)
      .u64("refreshes_completed", s.refreshes_completed)
      .u64("refreshes_failed", s.refreshes_failed)
      .u64("refreshes_self", s.refreshes_self)
      .u64("refresh_collisions", s.refresh_collisions)
      .u64("add_resamples", s.add_resamples)
      .u64("punishments", s.punishments);
  return o;
}

JsonObject traffic_json(const fi::traffic::TrafficMetrics& t) {
  JsonObject o;
  if (!t.enabled) return o;
  o.u64("epochs", t.epochs)
      .u64("streams", t.streams)
      .u64("honest_streams", t.honest_streams)
      .u64("requests_attempted", t.requests_attempted)
      .u64("rate_limited", t.rate_limited)
      .u64("lookup_failures", t.lookup_failures)
      .u64("starved", t.starved)
      .u64("dropped", t.dropped)
      .u64("enqueued", t.enqueued)
      .u64("served", t.served)
      .u64("backlog", t.backlog)
      .u64("cache_hits", t.cache_hits)
      .u64("cache_misses", t.cache_misses)
      .u64("payment_failures", t.payment_failures)
      .u64("retrievals_settled", t.retrievals_settled)
      .u64("bytes_served", t.bytes_served)
      .u64("revenue", t.revenue)
      .u64("p50_latency", t.p50_latency)
      .u64("p99_latency", t.p99_latency)
      .boolean("defense_armed", t.defense_armed)
      .num("defense_envelope", t.defense_envelope)
      .u64("flagged_streams", t.flagged_streams)
      .u64s("flagged_stream_ids", t.flagged_stream_ids);
  return o;
}

std::string network_fingerprint(const fi::core::Network& net) {
  return fi::snapshot::IncrementalNetworkHasher::full_fingerprint(net).hex();
}

}  // namespace perfbench
