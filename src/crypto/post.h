#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/porep.h"
#include "util/types.h"

/// Proof-of-Spacetime, simulated with verifiable Merkle challenges.
///
/// WindowPoSt (paper §II-B3) proves a replica is *still held* at proof time:
/// the epoch beacon picks random sealed blocks, the prover opens them against
/// the registered CommR. A prover who discarded the sealed bytes cannot
/// answer fresh challenges.
namespace fi::crypto {

/// A WindowPoSt proof for one replica at one epoch.
struct WindowProof {
  ReplicaId id;
  Hash256 comm_r;
  Hash256 beacon;      ///< epoch randomness the challenges derive from
  Time epoch = 0;      ///< the paper's pi.t
  struct Opening {
    std::uint64_t index = 0;
    std::vector<std::uint8_t> block;
    MerkleProof proof;
  };
  std::vector<Opening> openings;
};

/// Challenge indices for (beacon, comm_r) over `leaves` blocks.
std::vector<std::uint64_t> window_challenges(const Hash256& beacon,
                                             const Hash256& comm_r,
                                             std::uint32_t count,
                                             std::uint64_t leaves);

/// Builds a WindowPoSt proof from the sealed replica bytes.
WindowProof prove_window(std::span<const std::uint8_t> sealed,
                         const ReplicaId& id, const Hash256& beacon,
                         Time epoch, std::uint32_t challenge_count);

/// Verifies a WindowPoSt proof against the expected commitment and beacon.
bool verify_window(const WindowProof& proof, const Hash256& expected_comm_r,
                   const Hash256& expected_beacon,
                   std::uint32_t challenge_count);

}  // namespace fi::crypto
