#include "snapshot/incremental_hash.h"

#include <algorithm>
#include <span>
#include <string_view>

#include "crypto/sha256.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace fi::snapshot {

namespace {

constexpr std::string_view kComponentDomain = "fi/ihash/component";
constexpr std::string_view kRootDomain = "fi/ihash/root";

}  // namespace

crypto::Hash256 IncrementalNetworkHasher::component_subtree(
    const core::Network& net, core::Network::StateComponent component) {
  util::BinaryWriter writer;
  net.save_state_component(component, writer);
  const std::span<const std::uint8_t> encoding(writer.data());

  const std::size_t chunks =
      encoding.empty() ? 1 : (encoding.size() + kIncrementalChunkBytes - 1) /
                                 kIncrementalChunkBytes;
  std::vector<crypto::Digest> chunk_digests(chunks);
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t off = i * kIncrementalChunkBytes;
    const std::size_t len =
        std::min(kIncrementalChunkBytes, encoding.size() - off);
    chunk_digests[i] = crypto::sha256(encoding.subspan(off, len));
  }

  // Subtree digest: domain || component index || byte length || chunk
  // digests. The index separates components with identical encodings; the
  // length separates a message from its chunk-padding sibling.
  std::vector<std::uint8_t> fold;
  fold.reserve(16 + chunks * 32);
  fold.push_back(static_cast<std::uint8_t>(component));
  const std::uint64_t bytes = encoding.size();
  for (int i = 7; i >= 0; --i) {
    fold.push_back(static_cast<std::uint8_t>(bytes >> (8 * i)));
  }
  for (const crypto::Digest& d : chunk_digests) {
    fold.insert(fold.end(), d.begin(), d.end());
  }
  return crypto::hash_bytes(kComponentDomain, fold);
}

crypto::Hash256 IncrementalNetworkHasher::fingerprint(
    const core::Network& net) {
  last_refresh_count_ = 0;
  std::vector<std::uint8_t> root_input;
  root_input.reserve(core::Network::kStateComponentCount * 32);
  for (std::size_t c = 0; c < core::Network::kStateComponentCount; ++c) {
    const auto component = static_cast<core::Network::StateComponent>(c);
    Slot& slot = slots_[c];
    const std::uint64_t version = net.state_component_version(component);
    if (!slot.valid || slot.version != version) {
      slot.digest = component_subtree(net, component);
      slot.version = version;
      slot.valid = true;
      ++last_refresh_count_;
    }
    root_input.insert(root_input.end(), slot.digest.bytes.begin(),
                      slot.digest.bytes.end());
  }
  return crypto::hash_bytes(kRootDomain, root_input);
}

crypto::Hash256 IncrementalNetworkHasher::full_fingerprint(
    const core::Network& net) {
  std::vector<std::uint8_t> root_input;
  root_input.reserve(core::Network::kStateComponentCount * 32);
  for (std::size_t c = 0; c < core::Network::kStateComponentCount; ++c) {
    const auto component = static_cast<core::Network::StateComponent>(c);
    const crypto::Hash256 digest = component_subtree(net, component);
    root_input.insert(root_input.end(), digest.bytes.begin(),
                      digest.bytes.end());
  }
  return crypto::hash_bytes(kRootDomain, root_input);
}

const crypto::Hash256& IncrementalNetworkHasher::component_digest(
    core::Network::StateComponent component) const {
  const auto index = static_cast<std::size_t>(component);
  FI_CHECK_MSG(index < slots_.size() && slots_[index].valid,
               "component_digest before the first fingerprint()");
  return slots_[index].digest;
}

}  // namespace fi::snapshot
