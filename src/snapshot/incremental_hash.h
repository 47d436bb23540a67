#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/network.h"
#include "crypto/hash.h"

/// Incremental (Merkle-ized) network state fingerprint.
///
/// The flat `state_hash()` re-encodes and re-hashes the entire simulation
/// every time it is asked — O(total state) per golden check, which is what
/// made frequent checkpoint verification the most expensive part of a long
/// run. The engine's canonical encoding is defined as the in-order
/// concatenation of six components (`core::Network::StateComponent`), each
/// carrying a mutation-version counter, so a hasher can cache per-component
/// subtree digests and re-encode only the components whose counters moved:
/// a proof-cycle batch that touched allocations and misc state re-hashes
/// those two slices and reuses the cached digests of the other four.
///
/// The fingerprint is a distinct domain-separated value, NOT the flat
/// `state_hash()`: the flat hash (and the `FISNAP01` snapshot encoding it
/// covers) stays byte-identical and golden-pinned, while this fingerprint
/// has its own invariant — `fingerprint()` after any mutation sequence
/// equals `full_fingerprint()` recomputed from scratch — pinned by
/// tests/incremental_hash_test.cpp.
///
/// Version counters are monotone within a process only, so a hasher never
/// outlives its network and is never serialized.
namespace fi::snapshot {

/// Component re-encodings are split into chunks of this size; each chunk
/// gets its own SHA-256 digest, and the digests fold into the component's
/// subtree digest.
inline constexpr std::size_t kIncrementalChunkBytes = 8 * 1024;

class IncrementalNetworkHasher {
 public:
  /// Root fingerprint of `net`'s canonical state. Re-encodes and re-hashes
  /// only the components whose version counters moved since this hasher's
  /// previous call; the first call hashes everything.
  crypto::Hash256 fingerprint(const core::Network& net);

  /// From-scratch recompute of the same value, no caching — the oracle the
  /// invariant tests compare against. `h.fingerprint(net) ==
  /// IncrementalNetworkHasher::full_fingerprint(net)` must hold at every
  /// checkpoint-safe point.
  [[nodiscard]] static crypto::Hash256 full_fingerprint(
      const core::Network& net);

  /// Subtree digest of one component as of the last `fingerprint()` call
  /// on this hasher. Only valid after at least one call.
  [[nodiscard]] const crypto::Hash256& component_digest(
      core::Network::StateComponent component) const;

  /// How many of the six components the last `fingerprint()` call actually
  /// re-hashed (0..6). Exposed so tests can assert the O(changed-state)
  /// property, not just digest equality.
  [[nodiscard]] std::size_t last_refresh_count() const {
    return last_refresh_count_;
  }

 private:
  /// Encodes `component` and reduces it to its subtree digest:
  /// chunk digests (lane-batched) folded under a per-component domain tag
  /// together with the component index and byte length.
  static crypto::Hash256 component_subtree(
      const core::Network& net, core::Network::StateComponent component);

  struct Slot {
    bool valid = false;
    std::uint64_t version = 0;
    crypto::Hash256 digest;
  };
  std::array<Slot, core::Network::kStateComponentCount> slots_;
  std::size_t last_refresh_count_ = 0;
};

}  // namespace fi::snapshot
