#include "crypto/sha256.h"

#include <cstring>

#include "crypto/kernels.h"

namespace ccf::crypto {

namespace internal {

// FIPS 180-4 §4.2.2 round constants: first 32 bits of the fractional parts
// of the cube roots of the first 64 primes. Aligned so the SHA-NI kernel
// loads four at a time.
alignas(16) const uint32_t kSha256K[64] = {
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
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

namespace {
inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

void Sha256CompressPortable(uint32_t state[8], const uint8_t* data, size_t n) {
  // Hoist the chaining state into locals for the whole run so consecutive
  // blocks don't round-trip through memory.
  uint32_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
  uint32_t s4 = state[4], s5 = state[5], s6 = state[6], s7 = state[7];
  for (size_t blk = 0; blk < n; ++blk, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t t0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t t1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + t0 + w[i - 7] + t1;
    }
    uint32_t a = s0, b = s1, c = s2, d = s3;
    uint32_t e = s4, f = s5, g = s6, h = s7;
    for (int i = 0; i < 64; ++i) {
      uint32_t x1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + x1 + ch + kSha256K[i] + w[i];
      uint32_t x0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = x0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    s0 += a;
    s1 += b;
    s2 += c;
    s3 += d;
    s4 += e;
    s5 += f;
    s6 += g;
    s7 += h;
  }
  state[0] = s0;
  state[1] = s1;
  state[2] = s2;
  state[3] = s3;
  state[4] = s4;
  state[5] = s5;
  state[6] = s6;
  state[7] = s7;
}

Sha256CompressFn FastestSha256Compress() {
#if defined(__x86_64__)
  static const Sha256CompressFn fastest =
      CpuHasSha() ? Sha256CompressShaNi : Sha256CompressPortable;
  return fastest;
#else
  return Sha256CompressPortable;
#endif
}

}  // namespace internal

Sha256::Sha256() : Sha256(internal::FastestSha256Compress()) {}

void Sha256::Reset() {
  // FIPS 180-4 §5.3.3 initial hash value.
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buf_len_ = 0;
}

void Sha256::Update(ByteSpan data) {
  if (data.empty()) return;  // its data() may be null, which memcpy rejects
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == sizeof(buf_)) {
      compress_(state_, buf_, 1);
      buf_len_ = 0;
    }
  }
  // Whole blocks compress directly from the caller's span; the internal
  // buffer only ever holds a partial head (above) or tail (below).
  if (size_t whole = (data.size() - off) / 64; whole > 0) {
    compress_(state_, data.data() + off, whole);
    off += whole * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Sha256Digest Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(ByteSpan(pad, pad_len + 8));

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  Reset();
  return out;
}

}  // namespace ccf::crypto
