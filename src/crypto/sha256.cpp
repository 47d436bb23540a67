#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define FI_SHA256_X86 1
#endif

namespace fi::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef FI_SHA256_X86

#define FI_SHA_NI __attribute__((target("sha,ssse3,sse4.1")))

FI_SHA_NI inline __m128i load128(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

/// Four rounds: `wk` holds message words + round constants for all four,
/// and each `sha256rnds2` consumes two of them.
FI_SHA_NI inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i wk) {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

FI_SHA_NI void compress_shani(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  // Big-endian word load: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);

  // The rounds instruction keeps the state as (A,B,E,F) and (C,D,G,H).
  const __m128i dcba = _mm_shuffle_epi32(load128(state), 0xB1);      // CDAB
  const __m128i efgh = _mm_shuffle_epi32(load128(state + 4), 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds message words 4g..4g+3 for round group g.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(load128(data + 16 * g), byte_swap);
      } else {
        const __m128i prev = w[(g + 3) % 4];  // words 4g-4..4g-1
        const __m128i w7 =  // words 4g-7..4g-4
            _mm_alignr_epi8(prev, w[(g + 2) % 4], 4);
        w[g % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]), w7),
            prev);
      }
      const __m128i wk =
          _mm_add_epi32(w[g % 4], load128(kRoundConstants.data() + 4 * g));
      rounds4(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

#undef FI_SHA_NI

bool cpu_has_shani() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool sse = (c & bit_SSSE3) != 0 && (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return sse && (b & bit_SHA) != 0;
}

#endif  // FI_SHA256_X86

/// The kernel every default-constructed hasher uses, picked on first use.
Sha256Kernel process_kernel() {
  static const Sha256Kernel kernel = [] {
    const Sha256Kernel shani = sha256_blocks_shani();
    return shani != nullptr ? shani : &sha256_blocks_portable;
  }();
  return kernel;
}

}  // namespace

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) |
             (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) |
             std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Kernel sha256_blocks_shani() {
#ifdef FI_SHA256_X86
  static const bool available = cpu_has_shani();
  return available ? &compress_shani : nullptr;
#else
  return nullptr;
#endif
}

Sha256::Sha256() : Sha256(process_kernel()) {}

Sha256::Sha256(Sha256Kernel kernel) : kernel_(kernel) { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null data() — passing that to memcpy is UB
  // even with a zero length.
  if (data.empty()) return *this;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      kernel_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Every whole block left goes to the kernel in one call.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    kernel_(state_.data(), data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Digest Sha256::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update({pad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update({len_bytes, 8});
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finalize();
}

}  // namespace fi::crypto
