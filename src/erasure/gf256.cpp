#include "erasure/gf256.h"

#include "util/check.h"

namespace fi::erasure {

GF256::GF256() {
  // Build exp/log tables over generator 0x02 with polynomial 0x11d.
  std::uint16_t x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp_[i] = static_cast<std::uint8_t>(x);
    log_[x] = static_cast<std::uint8_t>(i);
    x = static_cast<std::uint16_t>(x << 1);
    if (x & 0x100) x ^= 0x11d;
  }
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      if (a == 0 || b == 0) {
        mul_[a][b] = 0;
      } else {
        mul_[a][b] = exp_[(log_[a] + log_[b]) % 255];
      }
    }
  }
}

const GF256& GF256::instance() {
  static const GF256 table;
  return table;
}

std::uint8_t GF256::mul(std::uint8_t a, std::uint8_t b) const {
  return mul_[a][b];
}

std::uint8_t GF256::div(std::uint8_t a, std::uint8_t b) const {
  FI_CHECK_MSG(b != 0, "GF(256) division by zero");
  if (a == 0) return 0;
  return exp_[(log_[a] + 255 - log_[b]) % 255];
}

std::uint8_t GF256::inv(std::uint8_t a) const {
  FI_CHECK_MSG(a != 0, "GF(256) inverse of zero");
  return exp_[(255 - log_[a]) % 255];
}

std::uint8_t GF256::pow(std::uint8_t a, unsigned power) const {
  if (power == 0) return 1;
  if (a == 0) return 0;
  return exp_[(static_cast<unsigned>(log_[a]) * power) % 255];
}

void GF256::mul_add_slice(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t len, std::uint8_t c) const {
  if (c == 0) return;
  const auto& row = mul_[c];
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= row[src[i]];
}

}  // namespace fi::erasure
