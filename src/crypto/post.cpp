#include "crypto/post.h"

#include "util/check.h"

namespace fi::crypto {

namespace {
constexpr std::string_view kWindowDomain = "fi/post/window";

std::span<const std::uint8_t> block_span(std::span<const std::uint8_t> data,
                                         std::size_t i) {
  const std::size_t off = i * kMerkleBlockSize;
  if (off >= data.size()) return {};
  const std::size_t len = std::min(kMerkleBlockSize, data.size() - off);
  return data.subspan(off, len);
}
}  // namespace

std::vector<std::uint64_t> window_challenges(const Hash256& beacon,
                                             const Hash256& comm_r,
                                             std::uint32_t count,
                                             std::uint64_t leaves) {
  FI_CHECK(leaves > 0);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  Hash256 state = hash_pair(kWindowDomain, beacon, comm_r);
  for (std::uint32_t t = 0; t < count; ++t) {
    state = hash_with_u64s(kWindowDomain, state, {t});
    out.push_back(state.prefix_u64() % leaves);
  }
  return out;
}

WindowProof prove_window(std::span<const std::uint8_t> sealed,
                         const ReplicaId& id, const Hash256& beacon,
                         Time epoch, std::uint32_t challenge_count) {
  const MerkleTree tree = MerkleTree::over_data(sealed);
  WindowProof proof;
  proof.id = id;
  proof.comm_r = tree.root();
  proof.beacon = beacon;
  proof.epoch = epoch;
  for (std::uint64_t idx : window_challenges(beacon, proof.comm_r,
                                             challenge_count,
                                             tree.leaf_count())) {
    WindowProof::Opening opening;
    opening.index = idx;
    const auto blk = block_span(sealed, idx);
    opening.block.assign(blk.begin(), blk.end());
    opening.proof = tree.prove(idx);
    proof.openings.push_back(std::move(opening));
  }
  return proof;
}

bool verify_window(const WindowProof& proof, const Hash256& expected_comm_r,
                   const Hash256& expected_beacon,
                   std::uint32_t challenge_count) {
  if (proof.comm_r != expected_comm_r) return false;
  if (proof.beacon != expected_beacon) return false;
  if (proof.openings.size() != challenge_count) return false;
  if (proof.openings.empty()) return true;
  const std::uint64_t leaves = proof.openings.front().proof.leaf_count;
  const auto expected = window_challenges(expected_beacon, expected_comm_r,
                                          challenge_count, leaves);
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const auto& op = proof.openings[t];
    if (op.index != expected[t]) return false;
    if (op.proof.leaf_index != op.index) return false;
    if (!merkle_verify(expected_comm_r, merkle_leaf_hash(op.block),
                       op.proof)) {
      return false;
    }
  }
  return true;
}

}  // namespace fi::crypto
