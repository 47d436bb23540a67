#pragma once

#include <cstdint>
#include <vector>

#include "util/binary_io.h"
#include "util/prng.h"
#include "util/types.h"

/// Serializable deterministic delivery substrate for the scenario engine —
/// the repository's one network model.
///
/// Typed messages sit in a flat min-heap keyed `(deliver_at, seq)` — the
/// same (time, insertion) order as the protocol pending list —
/// with a private seeded RNG for latency/loss draws, and per-region
/// partition and outage flags. Everything mutable has a canonical
/// little-endian encoding (`save_state`/`load_state`), so a resumed run
/// delivers byte-identically to an uninterrupted one, in-flight messages
/// included.
///
/// Topology: providers live in regional subnets; sector `s` belongs to
/// region `s % regions`. Clients (upload senders) sit on a backbone that is
/// never partitioned or down. Intra-region links use `base_latency`;
/// anything crossing regions (or the backbone) adds `region_latency`.
namespace fi::sim {

/// Latency/loss knobs, fixed at construction (they come from the scenario
/// spec, which is immutable for the lifetime of a run). All-zero knobs
/// with `regions == 1` make delivery instantaneous: a message sent at time
/// `t` is due at `t`, no RNG draw is consumed, and the model is
/// behaviorally invisible — the zero-latency special case the equivalence
/// tests pin.
struct NetConfig {
  std::uint64_t regions = 1;
  Time base_latency = 0;      ///< ticks per message, any link
  Time region_latency = 0;    ///< extra ticks when crossing regions
  Time ticks_per_kib = 0;     ///< bandwidth: extra ticks per KiB of payload
  Time jitter = 0;            ///< uniform extra in [0, jitter]
  double drop_probability = 0.0;  ///< random loss, sampled at send
};

/// Sender region for messages that do not originate in a sector (upload
/// confirmations travel client -> provider; the client is on the backbone).
inline constexpr std::uint64_t kBackboneRegion = ~std::uint64_t{0};

/// One replica-transfer request in flight. Mirrors
/// `core::ReplicaTransferRequested` field-for-field without depending on
/// the core layer, so `src/sim` stays a standalone substrate.
struct TransferMessage {
  std::uint64_t file = 0;
  std::uint32_t index = 0;
  std::uint64_t from_sector = 0;  ///< sender sector; `~0` for uploads
  std::uint64_t to_sector = 0;    ///< receiving sector (the destination)
  std::uint64_t client = 0;
  Time deadline = 0;  ///< protocol deadline (`DelayPerSize × f.size`)
};

class NetModel {
 public:
  NetModel(const NetConfig& config, std::uint64_t seed);

  [[nodiscard]] std::uint64_t regions() const { return config_.regions; }
  [[nodiscard]] std::uint64_t region_of_sector(std::uint64_t sector) const {
    return sector % config_.regions;
  }

  // ---- Net-condition injection -------------------------------------------
  /// A partitioned region keeps intra-region links but loses every link
  /// that crosses its border (other regions and the backbone).
  void set_region_partitioned(std::uint64_t region, bool partitioned);
  /// A down region (crash outage) loses every link, intra-region included.
  void set_region_down(std::uint64_t region, bool down);
  [[nodiscard]] bool region_partitioned(std::uint64_t region) const {
    return partitioned_[region] != 0;
  }
  [[nodiscard]] bool region_down(std::uint64_t region) const {
    return down_[region] != 0;
  }
  /// Either condition: the region can neither prove nor receive.
  [[nodiscard]] bool region_blocked(std::uint64_t region) const {
    return region_partitioned(region) || region_down(region);
  }

  // ---- Sending and delivery ----------------------------------------------
  /// Samples loss and latency for `message` and queues it. A message whose
  /// path is blocked at send time, or that loses the `drop_probability`
  /// draw, is dropped immediately (counted, never queued). Draw order is
  /// canonical: the loss draw first, then — only for surviving messages
  /// with `jitter > 0` — the jitter draw.
  void send(Time now, ByteCount payload_bytes, const TransferMessage& message);

  /// Due time of the earliest in-flight message, or `kNoTime` when none.
  [[nodiscard]] Time next_delivery_time() const;

  /// Pops the earliest message due at or before `now` into `out`; returns
  /// false when none is due. Messages whose path is blocked *at delivery
  /// time* are consumed and counted as dropped instead of returned — a
  /// partition that begins mid-flight loses the traffic crossing it.
  [[nodiscard]] bool pop_due(Time now, TransferMessage& out);

  [[nodiscard]] std::size_t in_flight() const { return heap_.size(); }

  // ---- Counters -----------------------------------------------------------
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  /// Delivered after the message's protocol deadline (the network, not an
  /// adversary, made the transfer miss its window).
  [[nodiscard]] std::uint64_t delivered_late() const { return delivered_late_; }
  [[nodiscard]] std::uint64_t dropped_loss() const { return dropped_loss_; }
  [[nodiscard]] std::uint64_t dropped_partition() const {
    return dropped_partition_;
  }
  [[nodiscard]] std::uint64_t dropped_down() const { return dropped_down_; }
  /// Per-destination-region delivery stats (latency in ticks).
  [[nodiscard]] std::uint64_t region_delivered(std::uint64_t region) const {
    return region_delivered_[region];
  }
  [[nodiscard]] std::uint64_t region_latency_sum(std::uint64_t region) const {
    return region_latency_sum_[region];
  }
  [[nodiscard]] std::uint64_t region_latency_max(std::uint64_t region) const {
    return region_latency_max_[region];
  }

  // ---- Snapshot -----------------------------------------------------------
  /// Canonical encoding: RNG state, region flags, the in-flight set sorted
  /// by `(deliver_at, seq)`, the seq counter, and every counter. The heap's
  /// in-memory layout is not state — delivery order is fully determined by
  /// the `(deliver_at, seq)` keys.
  void save_state(util::BinaryWriter& writer) const;
  void load_state(util::BinaryReader& reader);

 private:
  struct InFlight {
    Time deliver_at = 0;
    std::uint64_t seq = 0;  ///< tie-breaker: FIFO within a timestamp
    Time sent_at = 0;
    TransferMessage msg;
  };
  /// `std::push_heap`/`pop_heap` comparator: max-heap inverted into a
  /// min-heap on `(deliver_at, seq)`.
  struct LaterFirst {
    bool operator()(const InFlight& a, const InFlight& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint64_t source_region(const TransferMessage& msg) const;
  /// Blocked verdict for the (source, destination) pair; `down` outranks
  /// `partitioned` in drop attribution.
  [[nodiscard]] bool path_down(std::uint64_t src, std::uint64_t dst) const;
  [[nodiscard]] bool path_partitioned(std::uint64_t src,
                                      std::uint64_t dst) const;

  // fi-lint: not-serialized(construction input; rebuilt from the scenario
  // spec on resume, identical by spec round-trip)
  NetConfig config_;
  util::Xoshiro256 rng_;
  /// Per-region flags as u8 vectors (fixed size `regions`); not
  /// vector<bool> so the encoding loop reads naturally.
  std::vector<std::uint8_t> partitioned_;
  std::vector<std::uint8_t> down_;
  std::vector<InFlight> heap_;  ///< binary min-heap via LaterFirst
  std::uint64_t next_seq_ = 0;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_late_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t dropped_partition_ = 0;
  std::uint64_t dropped_down_ = 0;
  std::vector<std::uint64_t> region_delivered_;
  std::vector<std::uint64_t> region_latency_sum_;
  std::vector<std::uint64_t> region_latency_max_;
};

}  // namespace fi::sim
