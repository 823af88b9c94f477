// 4-way interleaved multi-buffer SHA-256, the portable kernel behind
// Sha256x4 (see sha256.h).
//
// Layout: every working variable is a 4-lane array indexed [lane], and every
// round body is a `for (lane)` loop over plain uint32_t ops. The four
// compression chains are independent, so the CPU can overlap their serial
// a..h dependency chains, and with SSE2/NEON the compiler vectorizes each
// lane loop into one 4x32-bit operation. No intrinsics, no platform gates.

#include <algorithm>
#include <cstring>

#include "crypto/kernels.h"
#include "crypto/sha256.h"

namespace ccf::crypto {

namespace internal {

namespace {

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void Compress4(uint32_t state[8][4], const uint8_t* const blocks[4]) {
  uint32_t w[64][4];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < 4; ++l) {
      const uint8_t* b = blocks[l] + 4 * i;
      w[i][l] = (static_cast<uint32_t>(b[0]) << 24) |
                (static_cast<uint32_t>(b[1]) << 16) |
                (static_cast<uint32_t>(b[2]) << 8) | static_cast<uint32_t>(b[3]);
    }
  }
  for (int i = 16; i < 64; ++i) {
    for (int l = 0; l < 4; ++l) {
      uint32_t s0 =
          Rotr(w[i - 15][l], 7) ^ Rotr(w[i - 15][l], 18) ^ (w[i - 15][l] >> 3);
      uint32_t s1 =
          Rotr(w[i - 2][l], 17) ^ Rotr(w[i - 2][l], 19) ^ (w[i - 2][l] >> 10);
      w[i][l] = w[i - 16][l] + s0 + w[i - 7][l] + s1;
    }
  }

  uint32_t a[4], b[4], c[4], d[4], e[4], f[4], g[4], h[4];
  for (int l = 0; l < 4; ++l) {
    a[l] = state[0][l];
    b[l] = state[1][l];
    c[l] = state[2][l];
    d[l] = state[3][l];
    e[l] = state[4][l];
    f[l] = state[5][l];
    g[l] = state[6][l];
    h[l] = state[7][l];
  }

  for (int i = 0; i < 64; ++i) {
    for (int l = 0; l < 4; ++l) {
      uint32_t s1 = Rotr(e[l], 6) ^ Rotr(e[l], 11) ^ Rotr(e[l], 25);
      uint32_t ch = (e[l] & f[l]) ^ (~e[l] & g[l]);
      uint32_t t1 = h[l] + s1 + ch + kSha256K[i] + w[i][l];
      uint32_t s0 = Rotr(a[l], 2) ^ Rotr(a[l], 13) ^ Rotr(a[l], 22);
      uint32_t maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
      uint32_t t2 = s0 + maj;
      h[l] = g[l];
      g[l] = f[l];
      f[l] = e[l];
      e[l] = d[l] + t1;
      d[l] = c[l];
      c[l] = b[l];
      b[l] = a[l];
      a[l] = t1 + t2;
    }
  }

  for (int l = 0; l < 4; ++l) {
    state[0][l] += a[l];
    state[1][l] += b[l];
    state[2][l] += c[l];
    state[3][l] += d[l];
    state[4][l] += e[l];
    state[5][l] += f[l];
    state[6][l] += g[l];
    state[7][l] += h[l];
  }
}

}  // namespace

void Sha256x4Portable(const uint8_t* const msgs[4], size_t len,
                      Sha256Digest out[4]) {
  // FIPS 180-4 §5.3.3 initial hash value, broadcast to all four lanes.
  static constexpr uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                      0xa54ff53a, 0x510e527f, 0x9b05688c,
                                      0x1f83d9ab, 0x5be0cd19};
  uint32_t state[8][4];
  for (int i = 0; i < 8; ++i) {
    for (int l = 0; l < 4; ++l) state[i][l] = kIv[i];
  }

  size_t whole = len / 64;
  const uint8_t* blocks[4];
  for (size_t blk = 0; blk < whole; ++blk) {
    for (int l = 0; l < 4; ++l) blocks[l] = msgs[l] + 64 * blk;
    Compress4(state, blocks);
  }

  // All messages share a length, so the padding layout is identical per
  // lane: remainder || 0x80 || zeros || 64-bit big-endian bit length.
  size_t rem = len % 64;
  size_t tail_len = (rem < 56) ? 64 : 128;
  uint8_t tail[4][128];
  uint64_t bit_len = static_cast<uint64_t>(len) * 8;
  for (int l = 0; l < 4; ++l) {
    std::copy_n(msgs[l] + 64 * whole, rem, tail[l]);  // msgs[l] may be null
    tail[l][rem] = 0x80;
    std::memset(tail[l] + rem + 1, 0, tail_len - rem - 1 - 8);
    for (int i = 0; i < 8; ++i) {
      tail[l][tail_len - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
    }
  }
  for (size_t blk = 0; blk < tail_len / 64; ++blk) {
    for (int l = 0; l < 4; ++l) blocks[l] = tail[l] + 64 * blk;
    Compress4(state, blocks);
  }

  for (int l = 0; l < 4; ++l) {
    for (int i = 0; i < 8; ++i) {
      out[l][4 * i] = static_cast<uint8_t>(state[i][l] >> 24);
      out[l][4 * i + 1] = static_cast<uint8_t>(state[i][l] >> 16);
      out[l][4 * i + 2] = static_cast<uint8_t>(state[i][l] >> 8);
      out[l][4 * i + 3] = static_cast<uint8_t>(state[i][l]);
    }
  }
}

}  // namespace internal

void Sha256x4(const uint8_t* const msgs[4], size_t len, Sha256Digest out[4]) {
  if (internal::CpuHasSha()) {
    for (int l = 0; l < 4; ++l) out[l] = Sha256::Hash(ByteSpan(msgs[l], len));
    return;
  }
  internal::Sha256x4Portable(msgs, len, out);
}

}  // namespace ccf::crypto
