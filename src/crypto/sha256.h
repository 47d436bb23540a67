#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

/// From-scratch SHA-256 (FIPS 180-4). No external crypto dependency is
/// available offline, and everything above (Merkle trees, PoRep seals, PoSt
/// challenges, block hashes, CIDs, the canonical `state_hash()`) keys off
/// this one primitive.
///
/// The hasher hands whole runs of 64-byte blocks to a compression kernel.
/// Two kernels exist: a portable one, which is the fallback and the
/// reference, and on x86 builds one on the SHA-NI extension. The kernel is
/// picked once per process from CPUID — SHA-NI when the CPU has it — and
/// nothing else selects it. Both compute the same function, so every digest
/// is identical whichever kernel ran.
namespace fi::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// A compression kernel: folds `blocks` consecutive 64-byte blocks starting
/// at `data` (any alignment) into the eight-word chaining `state`.
using Sha256Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

/// The portable kernel. Always available.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

/// The x86 SHA-NI kernel, or nullptr when this build is not for x86 or the
/// CPU lacks SHA-NI, SSSE3 or SSE4.1.
[[nodiscard]] Sha256Kernel sha256_blocks_shani();

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  /// Hashes with the process-wide kernel.
  Sha256();
  /// Hashes with `kernel` — lets the kernel differential tests drive each
  /// kernel through the same buffering and padding.
  explicit Sha256(Sha256Kernel kernel);

  /// Absorbs more input.
  Sha256& update(std::span<const std::uint8_t> data);

  /// Finalizes and returns the digest. The hasher must not be reused after
  /// calling `finalize()` without `reset()`.
  Digest finalize();

  /// Restores the initial state.
  void reset();

 private:
  Sha256Kernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience wrapper.
Digest sha256(std::span<const std::uint8_t> data);

}  // namespace fi::crypto
